package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"vpm/internal/core"
	"vpm/internal/fleet"
)

// pass is the measurement of one timed phase.
type pass struct {
	traced      bool
	wall, cpu   time.Duration
	allocs      uint64
	gcCycles    uint64
	gcCPU       float64 // seconds
	heapLive    uint64
	packets     int
	bytes       int64
	lagsMS      []float64
	fingerprint string
	verdicts    verdictCounts
	unverified  int
	st          streamStats
	tr          *tracer
}

// verdictCounts tallies the verdict stream.
type verdictCounts struct {
	epochs, linkChecks, violations, blames, seq int
	matched                                     int64
}

// runtimeSample is a snapshot of the runtime counters a pass reports.
type runtimeSample struct {
	allocs, gcCycles uint64
	gcCPU            float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/live:bytes",
}

func readRuntime() (runtimeSample, uint64) {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocs: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64(), gcCPU: s[2].Value.Float64()}, s[3].Value.Uint64()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timedPass runs a built world once and measures it. The verdict
// stream is fingerprinted and judged after the timed phase; then it
// and the consumed trace are dropped and the live heap is measured
// with the window and store still reachable.
func timedPass(wld world, tr *tracer) (*pass, error) {
	s := wld.stream()
	p := &pass{traced: tr != nil, packets: s.packets, tr: tr}
	runtime.GC()
	r0, _ := readRuntime()
	c0 := cpuTime()
	start := time.Now()
	err := wld.run()
	p.wall = time.Since(start)
	p.cpu = cpuTime() - c0
	r1, _ := readRuntime()
	if err != nil {
		return nil, err
	}
	p.allocs = r1.allocs - r0.allocs
	p.gcCycles = r1.gcCycles - r0.gcCycles
	p.gcCPU = r1.gcCPU - r0.gcCPU
	p.bytes = s.published.Load()
	p.st = s.streamStats

	p.lagsMS = s.lags()
	p.unverified = s.unverified()
	reps := s.reports
	s.reports = nil
	if p.fingerprint, err = fingerprint(reps); err != nil {
		return nil, err
	}
	p.verdicts = countVerdicts(reps)
	reps = nil
	runtime.GC()
	_, p.heapLive = readRuntime()
	runtime.KeepAlive(wld)
	return p, nil
}

// fingerprint digests a report stream the way the fleet gate does.
func fingerprint(reps []core.EpochReport) (string, error) {
	enc, err := fleet.EncodeReports(reps)
	if err != nil {
		return "", err
	}
	return fleet.Fingerprint(enc), nil
}

func countVerdicts(reps []core.EpochReport) verdictCounts {
	var c verdictCounts
	c.epochs = len(reps)
	for _, rep := range reps {
		c.seq += len(rep.Seq)
		for _, k := range rep.Keys {
			c.blames += len(k.Blames)
			for _, lv := range k.Links {
				c.linkChecks++
				c.violations += len(lv.Violations)
				c.matched += int64(lv.MatchedSamples)
			}
		}
	}
	return c
}

// ops returns the operations attempted and failed: fetches (failed
// after retry), epochs to verify (failed when left unverified) and
// queries (failed on a transport error or a non-2xx status).
func (p *pass) ops() (attempted, failed int) {
	attempted = p.st.fetchRequests - p.st.fetchRetries + p.verdicts.epochs + p.unverified + p.st.queries
	failed = p.st.fetchErrors + p.unverified + p.st.queriesFailed
	return attempted, failed
}

// pctl is the nearest-rank q-quantile of xs (0 when empty).
func pctl(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(xs []float64) float64 { return pctl(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// endToEnd is the untraced runs' metric set: the median over passes,
// with verdict lags pooled across them.
func endToEnd(ps []*pass, setups []float64) []metric {
	perPass := func(f func(p *pass) float64) float64 {
		v := make([]float64, len(ps))
		for i, p := range ps {
			v[i] = f(p)
		}
		return median(v)
	}
	var lags []float64
	for _, p := range ps {
		lags = append(lags, p.lagsMS...)
	}
	return []metric{
		{"setup_s", median(setups), "s"},
		{"pkts_per_s", perPass(func(p *pass) float64 { return float64(p.packets) / p.wall.Seconds() }), "pkt/s"},
		{"cpu_us_per_pkt", perPass(func(p *pass) float64 { return float64(p.cpu) / 1e3 / float64(p.packets) }), "us"},
		{"verdict_lag_ms_p50", pctl(lags, 0.5), "ms"},
		{"verdict_lag_ms_p90", pctl(lags, 0.9), "ms"},
		{"allocs_per_pkt", perPass(func(p *pass) float64 { return float64(p.allocs) / float64(p.packets) }), "allocs"},
		{"receipt_bytes_per_pkt", perPass(func(p *pass) float64 { return float64(p.bytes) / float64(p.packets) }), "B"},
	}
}

// summary is printed above the result line on every run: the counts
// the metrics are ratios of, the failure ratio with its base, the live
// heap, and fig1-deep's query latencies.
func summary(ps []*pass) []metric {
	var att, failed, epochs, queries int
	var wall float64
	var heap, qlat []float64
	for _, p := range ps {
		a, f := p.ops()
		att += a
		failed += f
		epochs += p.verdicts.epochs
		wall += p.wall.Seconds()
		heap = append(heap, float64(p.heapLive)/(1<<20))
		qlat = append(qlat, p.st.queryLatMS...)
		queries += p.st.queries
	}
	out := []metric{
		{"passes", float64(len(ps)), "count"},
		{"packets_per_pass", float64(ps[0].packets), "pkt"},
		{"timed_s", wall, "s"},
		{"verified_epochs", float64(epochs), "epochs"},
		{"ops", float64(att), "ops"},
		{"failed_ratio", float64(failed) / float64(max(att, 1)), "ratio"},
		{"heap_live_mb", median(heap), "MB"},
	}
	if queries > 0 {
		out = append(out,
			metric{"queries", float64(queries), "requests"},
			metric{"query_ms_p50", pctl(qlat, 0.5), "ms"},
			metric{"query_ms_p99", pctl(qlat, 0.99), "ms"},
		)
	}
	return out
}

// perLayer is the traced run's metric set. Every layer's time is also
// quoted as a share of the whole timed phase and of its system-only
// part (the whole minus the simulator's self time).
func perLayer(t, plain *pass) []metric {
	lt := t.tr.fold()
	whole := float64(t.wall)
	sys := whole - float64(lt[lNetsim].selfNS)
	busy := func(l layer) float64 { return float64(lt[l].busyNS) / 1e6 }
	self := func(l layer) float64 { return float64(lt[l].selfNS) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	shares := func(l layer) []metric {
		name := layerNames[l]
		out := []metric{{name + ".share", ratio(float64(lt[l].selfNS), whole), "ratio"}}
		if l != lNetsim {
			out = append(out, metric{name + ".sys_share", ratio(float64(lt[l].selfNS), sys), "ratio"})
		}
		return out
	}
	s := t.st
	obs := float64(t.tr.count(cObservations))
	fetchBytes := float64(t.tr.count(cFetchBytes))
	if fetchBytes == 0 {
		fetchBytes = float64(s.fetchBytes) // in-process bus: the signed bundles themselves
	}
	var qp50, qp99 float64
	if s.queries > 0 {
		qp50, qp99 = pctl(s.queryLatMS, 0.5), pctl(s.queryLatMS, 0.99)
	}
	out := []metric{
		{"loadgen.gen_ms", ms(s.genDur), "ms"},
		{"netsim.busy_ms", busy(lNetsim), "ms"},
		{"netsim.self_ms", self(lNetsim), "ms"},
		{"netsim.observations", obs, "count"},
		{"collect.busy_ms", busy(lCollect), "ms"},
		{"collect.self_ms", self(lCollect), "ms"},
		{"collect.ns_per_obs", ratio(float64(lt[lCollect].selfNS), obs), "ns"},
		{"collect.batches", float64(t.tr.count(cBatches)), "count"},
		{"publish.busy_ms", busy(lPublish), "ms"},
		{"publish.bundles", float64(t.tr.count(cBundles)), "count"},
		{"publish.receipts", float64(t.tr.count(cReceipts)), "count"},
		{"publish.bytes", float64(t.tr.count(cPublishBytes)), "B"},
		{"serve.busy_ms", busy(lServe), "ms"},
		{"serve.requests", float64(t.tr.count(cServeRequests)), "count"},
		{"fetch.busy_ms", busy(lFetch), "ms"},
		{"fetch.self_ms", self(lFetch), "ms"},
		{"fetch.requests", float64(s.fetchRequests), "count"},
		{"fetch.bundles", float64(s.fetchBundles), "count"},
		{"fetch.bytes", fetchBytes, "B"},
		{"fetch.useful_ratio", ratio(float64(s.fetchUseful), float64(s.fetchRequests)), "ratio"},
		{"fetch.retries", float64(s.fetchRetries), "count"},
		{"fetch.errors", float64(s.fetchErrors), "count"},
		{"ingest.busy_ms", busy(lIngest), "ms"},
		{"ingest.self_ms", self(lIngest), "ms"},
		{"ingest.receipts", float64(t.tr.count(cIngestReceipts)), "count"},
		{"verify.busy_ms", busy(lVerify), "ms"},
		{"verify.self_ms", self(lVerify), "ms"},
		{"verify.wait_ms", ms(s.verifyWait), "ms"},
		{"verify.epochs", float64(t.verdicts.epochs), "count"},
		{"verify.link_checks", float64(t.verdicts.linkChecks), "count"},
		{"verify.matched_samples", float64(t.verdicts.matched), "count"},
		{"verify.violations", float64(t.verdicts.violations), "count"},
		{"verify.blames", float64(t.verdicts.blames), "count"},
		{"verify.seq_verdicts", float64(t.verdicts.seq), "count"},
		{"evict.busy_ms", busy(lEvict), "ms"},
		{"window.segments_max", float64(s.segsMax), "count"},
		{"persist.busy_ms", busy(lPersist), "ms"},
		{"persist.appends", float64(t.tr.count(cAppends)), "count"},
		{"persist.seals", float64(t.tr.count(cSeals)), "count"},
		{"persist.reports", float64(t.tr.count(cReports)), "count"},
		{"persist.bytes", float64(t.tr.count(cPersistBytes)), "B"},
		{"query.busy_ms", busy(lQuery), "ms"},
		{"query.requests", float64(t.tr.count(cQueryRequests)), "count"},
		{"query.errors", float64(t.tr.count(cQueryErrors)), "count"},
		{"query.client_ms_p50", qp50, "ms"},
		{"query.client_ms_p99", qp99, "ms"},
		{"runtime.heap_live_mb", float64(t.heapLive) / (1 << 20), "MB"},
		{"runtime.gc_cycles", float64(t.gcCycles), "count"},
		{"runtime.gc_cpu_ms", t.gcCPU * 1e3, "ms"},
		{"trace.whole_ms", ms(t.wall), "ms"},
		{"trace.sys_ms", sys / 1e6, "ms"},
		{"trace.overhead_wall_pct", 100 * (ratio(float64(t.wall), float64(plain.wall)) - 1), "%"},
		{"trace.overhead_cpu_pct", 100 * (ratio(float64(t.cpu), float64(plain.cpu)) - 1), "%"},
	}
	for l := layer(0); l < nLayers; l++ {
		out = append(out, shares(l)...)
	}
	return out
}
