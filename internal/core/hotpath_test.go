package core

import (
	"bytes"
	"testing"

	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/streamagg"
	"vpm/internal/trace"
)

// hotpathWorkload builds a deterministic multi-path observation stream
// chunked into batches. The same digests repeat on every feed pass (so
// marker and cut positions are identical run to run); timestamps are
// shifted forward by span between passes to keep HOP clocks monotonic.
func hotpathWorkload(t testing.TB, npkts int) (batches [][]netsim.Observation, span int64, cfg CollectorConfig) {
	t.Helper()
	tc := equivTraceConfig(4, 100_000, int64(npkts)*10_000)
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) > npkts {
		pkts = pkts[:npkts]
	}
	obs := make([]netsim.Observation, len(pkts))
	for i := range pkts {
		obs[i] = netsim.Observation{Pkt: &pkts[i], Digest: pkts[i].Digest(1), TimeNS: int64(i) * 10_000}
	}
	for off := 0; off < len(obs); off += 4096 {
		end := off + 4096
		if end > len(obs) {
			end = len(obs)
		}
		batches = append(batches, obs[off:end])
	}
	cfg = CollectorConfig{
		HOP:   4,
		Table: tc.Table(),
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	}
	return batches, int64(len(obs)) * 10_000, cfg
}

// TestObserveBatchSteadyStateZeroAlloc is the zero-alloc bar of the
// wire-speed hot path: after warmup (path state created, scratch
// buffers grown, one Drain/Recycle round trip), feeding the
// collector allocates at most AllocsPerPktBudget per packet.
func TestObserveBatchSteadyStateZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	const npkts = 20_000
	for _, shards := range []int{1, 2} {
		batches, span, cfg := hotpathWorkload(t, npkts)
		cfg.Shards = shards
		col, err := NewCollector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		feed := func() {
			for _, b := range batches {
				for i := range b {
					b[i].TimeNS += span
				}
				col.ObserveBatch(b)
			}
		}
		// Warmup covers more feed passes than the measurement will run,
		// so every accumulator reaches its steady-state capacity, then
		// one Drain/Recycle round trip re-arms the spare buffers.
		for i := 0; i < 8; i++ {
			feed()
		}
		samples, aggs := col.Drain()
		col.Recycle(samples, aggs)

		const runs = 3
		allocs := testing.AllocsPerRun(runs, feed)
		perPkt := allocs / float64(npkts)
		t.Logf("shards=%d: %.1f allocs/run over %d pkts = %.6f allocs/pkt", shards, allocs, npkts, perPkt)
		if perPkt > AllocsPerPktBudget {
			t.Errorf("shards=%d: steady-state allocations %.6f/pkt exceed budget %.4f", shards, perPkt, AllocsPerPktBudget)
		}
	}
}

// sketchConfigFor builds a sketch-backend variant of cfg.
func sketchConfigFor(cfg CollectorConfig, keepRate float64) CollectorConfig {
	cfg.Backend = BackendSketch
	cfg.Sketch = streamagg.Config{
		KeepRate:    keepRate,
		Salt:        0x5eed_cafe,
		MarkerRate:  cfg.Sampling.MarkerRate,
		SketchCells: 512,
		SketchSeed:  7,
	}
	return cfg
}

// TestSketchBackendKeepAllByteIdentical: with KeepRate = 1 the sketch
// backend must emit receipts byte-identical to the exact backend — the
// streaming state rides alongside without perturbing the receipt
// stream.
func TestSketchBackendKeepAllByteIdentical(t *testing.T) {
	batches, _, cfg := hotpathWorkload(t, 40_000)
	cfg.Shards = 1
	exact, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := NewCollector(sketchConfigFor(cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		exact.ObserveBatch(b)
		sk.ObserveBatch(b)
	}
	es, ea := exact.Flush()
	ss, sa := sk.Flush()
	if !bytes.Equal(encodeReceipts(es, ea), encodeReceipts(ss, sa)) {
		t.Fatal("KeepRate=1 sketch backend receipts differ from exact backend")
	}
	sketches := sk.DrainSketches()
	if len(sketches) == 0 {
		t.Fatal("sketch backend sealed no sketches")
	}
	// Every retained record was also fed to the streaming state.
	total := uint64(0)
	for _, ps := range sketches {
		total += ps.Sampled
		sk.SketchPool().Put(ps)
	}
	var retained uint64
	for _, r := range ss {
		retained += uint64(len(r.Samples))
	}
	if total != retained {
		t.Fatalf("sketches saw %d records, receipts retained %d", total, retained)
	}
	if exact.DrainSketches() != nil {
		t.Fatal("exact backend produced sketches")
	}
}

// TestSketchBackendThinnedSubset: with KeepRate < 1 the retained
// records are exactly the exact backend's records filtered through the
// system-wide KeepFilter (markers always kept), and each path's sketch
// counted the full pre-thinning sampled set — one shard and four
// agreeing byte-for-byte.
func TestSketchBackendThinnedSubset(t *testing.T) {
	const keepRate = 0.25
	batches, _, cfg := hotpathWorkload(t, 40_000)
	cfg.Shards = 1
	exact, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewCollector(sketchConfigFor(cfg, keepRate))
	if err != nil {
		t.Fatal(err)
	}
	shardedCfg := sketchConfigFor(cfg, keepRate)
	shardedCfg.Shards = 4
	sharded, err := NewCollector(shardedCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		exact.ObserveBatch(b)
		serial.ObserveBatch(b)
		sharded.ObserveBatch(b)
	}
	es, _ := exact.Flush()
	ss, sa := serial.Flush()
	hs, ha := sharded.Flush()
	if !bytes.Equal(encodeReceipts(ss, sa), encodeReceipts(hs, ha)) {
		t.Fatal("sketch-backend receipts differ between one shard and four")
	}

	// Thinned receipts must equal the exact records passed through the
	// same filter every HOP applies.
	f := streamagg.NewKeepFilter(keepRate, 0x5eed_cafe, cfg.Sampling.MarkerRate)
	exactByPath := map[receipt.PathID][]receipt.SampleRecord{}
	for _, r := range es {
		exactByPath[r.Path] = r.Samples
	}
	var thinnedWant int
	for _, r := range ss {
		want := make([]receipt.SampleRecord, 0, len(r.Samples))
		for _, rec := range exactByPath[r.Path] {
			if f.Keep(rec.PktID) {
				want = append(want, rec)
			}
		}
		thinnedWant += len(want)
		if len(want) != len(r.Samples) {
			t.Fatalf("path %v: retained %d records, want %d", r.Path, len(r.Samples), len(want))
		}
		for i := range want {
			if want[i] != r.Samples[i] {
				t.Fatalf("path %v record %d: %+v != %+v", r.Path, i, r.Samples[i], want[i])
			}
		}
	}
	var exactTotal int
	for _, recs := range exactByPath {
		exactTotal += len(recs)
	}
	if thinnedWant >= exactTotal {
		t.Fatalf("thinning kept everything (%d of %d): keepRate not exercised", thinnedWant, exactTotal)
	}

	// Sketches count the pre-thinning sampled set.
	serialSketches := serial.DrainSketches()
	shardedSketches := sharded.DrainSketches()
	if len(serialSketches) != len(shardedSketches) {
		t.Fatalf("sketch counts differ: %d vs %d", len(serialSketches), len(shardedSketches))
	}
	for i, ps := range serialSketches {
		hp := shardedSketches[i]
		if ps.Path != hp.Path || ps.Sampled != hp.Sampled {
			t.Fatalf("sketch %d differs: serial %v/%d sharded %v/%d", i, ps.Path, ps.Sampled, hp.Path, hp.Sampled)
		}
		if want := uint64(len(exactByPath[ps.Path])); ps.Sampled != want {
			t.Fatalf("path %v: sketch counted %d sampled, exact retained %d", ps.Path, ps.Sampled, want)
		}
		serial.SketchPool().Put(ps)
		sharded.SketchPool().Put(hp)
	}
}
