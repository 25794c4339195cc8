package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"clustermarket/internal/cluster"
	"clustermarket/internal/core"
	"clustermarket/internal/market"
	"clustermarket/internal/resource"
)

// The common "planet": twelve cold clusters and one hot one, as in
// bench_test.go, but with three machines a cluster where bench_test.go
// has a hundred. At a hundred machines every order wins and the clock is
// trivial; at three the clusters are contended, about a quarter of the
// orders win on one exchange, and the clock has to price the rest out.
const (
	planetCold     = 12
	planetMachines = 3
	planetTeams    = 16
	planetBatch    = 512 // orders per epoch
	planetProduct  = "batch-compute"
	planetBudget   = 1e12
)

var machineShape = cluster.Usage{CPU: 32, RAM: 128, Disk: 20}

func coldName(i int) string { return "p" + strconv.Itoa(i+1) }
func teamName(i int) string { return "bt" + strconv.Itoa(i) }

// planetFleet builds the slice of the planet owned by region idx of
// regions: every regions-th cold cluster, and the hot cluster h1, filled
// to 0.8, in region 0. planetFleet(0, 1) is the whole planet.
func planetFleet(idx, regions int) (*cluster.Fleet, error) {
	f := cluster.NewFleet()
	add := func(name string) error {
		c := cluster.New(name, nil)
		c.AddMachines(planetMachines, machineShape)
		return f.AddCluster(c)
	}
	for i := idx; i < planetCold; i += regions {
		if err := add(coldName(i)); err != nil {
			return nil, err
		}
	}
	if idx == 0 {
		if err := add("h1"); err != nil {
			return nil, err
		}
		// A fixed seed, as in bench_test.go: the fill is part of the
		// world, not of the workload, and recovery rebuilds the same fleet.
		rng := rand.New(rand.NewSource(12))
		if err := f.FillToUtilization(rng, "h1", cluster.Usage{CPU: 0.8, RAM: 0.8, Disk: 0.8}); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func openAccounts(open func(team string) error) error {
	for i := 0; i < planetTeams; i++ {
		if err := open(teamName(i)); err != nil {
			return err
		}
	}
	return nil
}

// planetWindows are the twelve rotating XOR alternative sets of four cold
// clusters; order i of an epoch uses window i mod 12. Rotation keeps the
// proxies from chasing one cheapest cluster in lockstep, and under the
// i mod R region partition every window spans four regions.
var planetWindows = func() [][]string {
	out := make([][]string, planetCold)
	for i := range out {
		w := make([]string, 4)
		for k := range w {
			w[k] = coldName((i + k) % planetCold)
		}
		out[i] = w
	}
	return out
}()

// order is one generated input: SubmitProduct's arguments.
type order struct {
	team     string
	qty      float64
	clusters []string
	limit    float64
}

// planetOrders fills buf with one epoch of planet traffic: one worker of
// batch-compute in any cluster of a rotating window, limit 5..64 and team
// drawn from the seed.
func planetOrders(rng *rand.Rand, buf []order) {
	for i := range buf {
		buf[i] = order{
			team:     teamName(rng.Intn(planetTeams)),
			qty:      1,
			clusters: planetWindows[i%planetCold],
			limit:    float64(5 + rng.Intn(60)),
		}
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// threadCPU is the calling OS thread's CPU time so far, to the nanosecond:
// getrusage only moves at scheduler ticks, which is too coarse to meter a
// millisecond.
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3 // Linux CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// liveHeapMB is the heap still reachable after a full collection. The
// caller keeps the world referenced across the call.
func liveHeapMB() float64 {
	// Twice: the first collection empties the sync.Pools of encoders and
	// buffers into their victim caches, the second frees those.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// closedLoop is one repetition of a closed-loop workload: per epoch,
// workers goroutines submit batch orders between them and all wait at a
// barrier, then one tick settles the batch.
type closedLoop struct {
	epochs, batch, workers int
	seed                   int64
	gen                    func(rng *rand.Rand, buf []order)
	submit                 func(o *order) error
	submitSpan             string
	// tick settles one epoch. The record may be nil (federation).
	tick     func(epoch int) (*market.AuctionRecord, error)
	tickSpan string
	// ex, when set, is the single exchange behind submit and tick; the
	// traced pass replays its clock input from outside before each tick.
	ex *market.Exchange
}

// loopSamples is what one closedLoop run measured.
type loopSamples struct {
	cycles, submitPhases, ticks []time.Duration // one per epoch
	submits                     []time.Duration // one per call
	attempted, failed           int
	wall                        time.Duration // first submit to last tick
	cpu                         float64       // CPU seconds over wall
	rounds                      []float64     // clock rounds per epoch, where the tick reports them
	noConvergence               int

	// Traced pass only: the clock replayed outside the exchange, and the
	// read paths bidders and the operator poll, timed once per epoch.
	replay     replaySamples
	openOrders []time.Duration
	reserve    []time.Duration
	prelim     []time.Duration
	ordersTail []time.Duration
}

type replaySamples struct {
	assemble, newAuction, run []time.Duration
	rounds, components, bids  []float64
	epochs, matched           int
}

func (c *closedLoop) run(rec *recorder) (*loopSamples, error) {
	s := &loopSamples{}
	rng := rand.New(rand.NewSource(c.seed))
	buf := make([]order, c.batch)
	perWorker := make([][]time.Duration, c.workers)
	bufs := make([]*spanBuf, c.workers)
	for w := range perWorker {
		perWorker[w] = make([]time.Duration, 0, c.epochs*(c.batch/c.workers+1))
		bufs[w] = rec.buffer()
	}
	replayBuf := rec.buffer()
	failed := make([]int, c.workers)

	cpu0, t0 := cpuSeconds(), time.Now()
	for e := 0; e < c.epochs; e++ {
		c.gen(rng, buf)

		epochSpan := rec.begin("epoch", -1, e)
		start := time.Now()
		phase := rec.begin("submit_phase", epochSpan, e)
		var wg sync.WaitGroup
		for w := 0; w < c.workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(buf); i += c.workers {
					t := time.Now()
					err := c.submit(&buf[i])
					perWorker[w] = append(perWorker[w], time.Since(t))
					bufs[w].add(c.submitSpan, t, phase, false)
					if err != nil {
						failed[w]++
					}
				}
			}(w)
		}
		wg.Wait()
		rec.end(phase)
		submitted := time.Now()

		// The replay sits between the two halves of the cycle and is not
		// part of it: the cycle is submit phase plus tick.
		var replayed *core.Result
		if rec != nil && c.ex != nil {
			var err error
			if replayed, err = c.replayClock(s, replayBuf, epochSpan, e); err != nil {
				return nil, err
			}
		}

		tickStart := time.Now()
		tickSpan := rec.begin(c.tickSpan, epochSpan, e)
		ar, err := c.tick(e)
		rec.end(tickSpan)
		tick := time.Since(tickStart)
		rec.end(epochSpan)
		if errors.Is(err, core.ErrNoConvergence) {
			s.noConvergence++
		} else if err != nil {
			return nil, fmt.Errorf("epoch %d tick: %w", e, err)
		}
		if ar != nil {
			s.rounds = append(s.rounds, float64(ar.Rounds))
		}
		if replayed != nil {
			s.replay.epochs++
			if ar != nil && sameBits(replayed.Prices, ar.Prices) {
				s.replay.matched++
			}
		}
		s.submitPhases = append(s.submitPhases, submitted.Sub(start))
		s.ticks = append(s.ticks, tick)
		s.cycles = append(s.cycles, submitted.Sub(start)+tick)
	}
	s.wall, s.cpu = time.Since(t0), cpuSeconds()-cpu0
	for w := range perWorker {
		s.submits = append(s.submits, perWorker[w]...)
		s.failed += failed[w]
	}
	s.attempted = c.epochs * c.batch
	return s, nil
}

// replayClock rebuilds the clock input the next tick will claim, from
// public calls only, and times core.NewAuction and Auction.Run on it. The
// construction mirrors Exchange.claimBatch and operatorSupply: the open
// orders' bids in ID order, then one seller bid per cluster offering 0.8
// of its free capacity, started at the reserve prices. The tick that
// follows must settle at the same prices bit for bit, or the replay is
// timing something other than what the exchange runs.
func (c *closedLoop) replayClock(s *loopSamples, leaves *spanBuf, epochSpan, epoch int) (*core.Result, error) {
	ex := c.ex
	reg := ex.Registry()

	t := time.Now()
	open := ex.OpenOrders()
	s.openOrders = append(s.openOrders, time.Since(t))
	bids := make([]*core.Bid, 0, len(open)+planetCold+1)
	for _, o := range open {
		bids = append(bids, o.Bid)
	}
	free := ex.Fleet().FreeVector(reg)
	for _, cl := range reg.Clusters() {
		var supply resource.Vector
		for _, i := range reg.ClusterPools(cl) {
			if q := free[i] * 0.8; q > 0 {
				if supply == nil {
					supply = reg.Zero()
				}
				supply[i] = -q
			}
		}
		if supply != nil {
			bids = append(bids, &core.Bid{User: market.OperatorAccount, Bundles: []resource.Vector{supply}, Limit: -0.000001})
		}
	}
	s.replay.assemble = append(s.replay.assemble, time.Since(t))
	leaves.add("market.assemble", t, epochSpan, true)

	t = time.Now()
	start, err := ex.ReservePrices()
	s.reserve = append(s.reserve, time.Since(t))
	if err != nil {
		return nil, fmt.Errorf("epoch %d reserve prices: %w", epoch, err)
	}

	t = time.Now()
	a, err := core.NewAuction(reg, bids, core.Config{Start: start})
	s.replay.newAuction = append(s.replay.newAuction, time.Since(t))
	leaves.add("core.new_auction", t, epochSpan, true)
	if err != nil {
		return nil, fmt.Errorf("epoch %d replay NewAuction: %w", epoch, err)
	}
	t = time.Now()
	res, err := a.Run()
	s.replay.run = append(s.replay.run, time.Since(t))
	leaves.add("core.run", t, epochSpan, true)
	if res == nil {
		return nil, fmt.Errorf("epoch %d replay Run: %w", epoch, err)
	}
	s.replay.rounds = append(s.replay.rounds, float64(res.Rounds))
	s.replay.components = append(s.replay.components, float64(a.Components()))
	s.replay.bids = append(s.replay.bids, float64(len(bids)))

	// The polled read paths, on the same pre-tick book. PreliminaryPrices
	// is a whole clock run, so it is sampled every tenth epoch.
	t = time.Now()
	ex.OrdersTail(50)
	s.ordersTail = append(s.ordersTail, time.Since(t))
	if epoch%10 == 0 {
		t = time.Now()
		if _, _, err := ex.PreliminaryPrices(); err != nil && !errors.Is(err, core.ErrNoConvergence) {
			return nil, fmt.Errorf("epoch %d preliminary prices: %w", epoch, err)
		}
		s.prelim = append(s.prelim, time.Since(t))
	}
	return res, nil
}

func sameBits(a, b resource.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
