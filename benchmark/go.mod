// The benchmark is a module of its own so that the root module's build,
// vet, lint and coverage gates do not see it; the replace directive and
// the clustermarket/ module path prefix let it import the root module's
// internal packages. Run it from the repository root with
// `go run -C benchmark .`.
module clustermarket/benchmark

go 1.22

require clustermarket v0.0.0

replace clustermarket => ../
