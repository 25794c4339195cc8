// Package clustermarket is a Go implementation of the market-based
// resource provisioning system from "Using a Market Economy to Provision
// Compute Resources Across Planet-wide Clusters" (Stokely, Winget, Keyes,
// Grimes, Yolken — IPPS/IPDPS 2009).
//
// The root package holds no code. The system lives in internal packages;
// these hold the paper's layers:
//
//   - internal/resource: pools, registries and vectors (Section II);
//   - internal/bidlang: the TBBL-style bidding language (Section II);
//   - internal/core: the ascending clock auction, its Capped price step
//     and the SYSTEM constraints (Section III);
//   - internal/reserve: congestion-weighted reserve prices (Section IV);
//   - internal/cluster: fleets, clusters and quotas, the substrate;
//   - internal/market: the trading platform, the Exchange (Section V).
//
// The journal, the federation, the web front door, telemetry, fault
// injection, the scenario engine and the invariant kernel go beyond the
// paper.
//
// The programs are cmd/marketd (the trading platform's web server) and
// cmd/marketsim (the paper's figures, a bid generator and the scenario
// soak). The examples in this directory import the packages they show:
// Example is the minimal flow, and Example_migration and
// Example_arbitrage reproduce Sections V.B and V.C. The explicitly
// optimizing allocator of Sections III.C.4 and VI is a test oracle in
// internal/optimize, whose Example_optimizer sets it against the clock.
// DESIGN.md describes the implementation layer by layer.
package clustermarket
