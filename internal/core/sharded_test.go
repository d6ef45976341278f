package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"vpm/internal/aggregation"
	"vpm/internal/hashing"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/trace"
)

// equivTraceConfig builds a multi-path trace so collectors hold several
// active paths (exercising shard spread and drain ordering). Total rate
// is split evenly across paths.
func equivTraceConfig(paths int, totalPPS float64, durationNS int64) trace.Config {
	cfg := trace.Config{Seed: 42, DurationNS: durationNS}
	for i := 0; i < paths; i++ {
		cfg.Paths = append(cfg.Paths, trace.PathSpec{
			SrcPrefix:    packet.MakePrefix(10, byte(1+i), 0, 0, 16),
			DstPrefix:    packet.MakePrefix(172, byte(16+i), 0, 0, 16),
			RatePPS:      totalPPS / float64(paths),
			ActiveFlows:  32,
			MeanFlowPkts: 50,
			UDPFraction:  0.2,
		})
	}
	return cfg
}

// runDeployment replays pkts over a fresh Fig1 path (same seed every
// call, so loss/jitter randomness is identical across runs) into a
// deployment with the given shard count, and finalizes it.
func runDeployment(t testing.TB, tc trace.Config, pkts []packet.Packet, shards int) (*Deployment, *netsim.Result) {
	t.Helper()
	path := netsim.Fig1Path(77)
	dc := DefaultDeployConfig()
	dc.Shards = shards
	dep, err := NewDeployment(path, tc.Table(), dc)
	if err != nil {
		t.Fatal(err)
	}
	res := runPath(t, path, pkts, dep.Observers())
	dep.Finalize()
	return dep, res
}

// encodeReceipts renders a HOP's full receipt output to wire bytes, so
// equivalence can be asserted byte-for-byte.
func encodeReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) []byte {
	var b []byte
	for _, s := range samples {
		b = s.AppendBinary(b)
	}
	for _, a := range aggs {
		b = a.AppendBinary(b)
	}
	return b
}

// oracleCollector is the per-packet reference the Collector is checked
// against: packet.Table.Classify straight into a map of per-path
// sampling.Sampler and aggregation.Partitioner, with no classification
// cache, no state memo, no run-length sub-batches and no shards.
type oracleCollector struct {
	cfg          CollectorConfig
	paths        map[packet.PathKey]*oraclePath
	observed     uint64
	unclassified uint64
}

type oraclePath struct {
	id      receipt.PathID
	sampler *sampling.Sampler
	part    *aggregation.Partitioner
}

func (o *oracleCollector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	o.observed++
	key, ok := o.cfg.Table.Classify(pkt)
	if !ok {
		o.unclassified++
		return
	}
	p, ok := o.paths[key]
	if !ok {
		id := o.cfg.PathID(key)
		p = &oraclePath{id: id, sampler: sampling.New(o.cfg.Sampling), part: aggregation.New(o.cfg.Aggregation, id)}
		o.paths[key] = p
	}
	p.part.Observe(digest, tNS)
	p.sampler.Observe(digest, tNS)
}

// drain returns the receipts finalized so far (all open state too when
// flush is set) as wire bytes: sample receipts by PathID, then each
// path's aggregates in stream order, paths by PathID.
func (o *oracleCollector) drain(flush bool) []byte {
	var samples []receipt.SampleReceipt
	var aggs []receipt.AggReceipt
	for _, p := range o.paths {
		if flush {
			aggs = append(aggs, p.part.Flush()...)
		} else {
			aggs = append(aggs, p.part.Take()...)
		}
		if recs := p.sampler.Take(); len(recs) > 0 {
			samples = append(samples, receipt.SampleReceipt{Path: p.id, Samples: recs})
		}
	}
	sort.Slice(samples, func(a, b int) bool { return samples[a].Path.Compare(samples[b].Path) < 0 })
	sort.SliceStable(aggs, func(a, b int) bool { return aggs[a].Path.Compare(aggs[b].Path) < 0 })
	return encodeReceipts(samples, aggs)
}

func (o *oracleCollector) memory() MemoryStats {
	m := MemoryStats{ActivePaths: len(o.paths), MonitoringCacheBytes: len(o.paths) * receipt.BaseAggReceiptBytes}
	for _, p := range o.paths {
		m.TempBufferPeakEntries = max(m.TempBufferPeakEntries, p.sampler.TempHighWater())
	}
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// oracleCheckpoint is the reference state after one drain: the drained
// wire bytes plus the counters and memory accounting at that point.
type oracleCheckpoint struct {
	wire                   []byte
	observed, unclassified uint64
	mem                    MemoryStats
}

// TestShardedSerialEquivalence is the deployment-level check of the
// sharded pipeline: a one-shard deployment and a four-shard deployment
// fed the same 100k-packet trace emit byte-identical receipt sets at
// every HOP, with matching counters and memory accounting.
func TestShardedSerialEquivalence(t *testing.T) {
	tc := equivTraceConfig(3, 100_000, int64(1e9)) // ~100k packets over 3 paths
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 90_000 {
		t.Fatalf("trace too small for the acceptance scale: %d packets", len(pkts))
	}

	serial, resS := runDeployment(t, tc, pkts, 1)
	sharded, resP := runDeployment(t, tc, pkts, 4)

	if !reflect.DeepEqual(resS, resP) {
		t.Fatal("ground truth differs between one-shard and four-shard runs")
	}
	for id, sc := range serial.Collectors {
		pc, ok := sharded.Collectors[id]
		if !ok {
			t.Fatalf("sharded deployment missing %v", id)
		}
		if sc.NumShards() != 1 || pc.NumShards() != 4 {
			t.Fatalf("%v: built %d and %d shards, want 1 and 4", id, sc.NumShards(), pc.NumShards())
		}
		so, su := sc.Stats()
		po, pu := pc.Stats()
		if so != po || su != pu {
			t.Errorf("%v: stats differ: serial (%d,%d) sharded (%d,%d)", id, so, su, po, pu)
		}
		sm, pm := sc.Memory(), pc.Memory()
		if sm.ActivePaths != pm.ActivePaths {
			t.Errorf("%v: active paths differ: %d vs %d", id, sm.ActivePaths, pm.ActivePaths)
		}
		if sm.TempBufferPeakEntries != pm.TempBufferPeakEntries {
			t.Errorf("%v: temp-buffer peak differs: %d vs %d", id, sm.TempBufferPeakEntries, pm.TempBufferPeakEntries)
		}

		ps, pp := serial.Processors[id], sharded.Processors[id]
		if !bytes.Equal(encodeReceipts(ps.Samples, ps.Aggs), encodeReceipts(pp.Samples, pp.Aggs)) {
			t.Errorf("%v: receipt wire bytes differ between serial and sharded", id)
		}
		if !reflect.DeepEqual(ps.Samples, pp.Samples) {
			t.Errorf("%v: sample receipts differ", id)
		}
		if !reflect.DeepEqual(ps.Aggs, pp.Aggs) {
			t.Errorf("%v: aggregate receipts differ", id)
		}
	}
}

// TestCollectorMatchesOracle is the acceptance check of the collector:
// at 1, 2, 4 and 8 shards, fed per packet through Observe and in
// replay-sized batches through ObserveBatch, it drains byte-identical
// receipts to the per-packet oracle at every mid-stream Drain and at
// the final Flush, with matching counters and memory accounting. The
// ~100k-packet workload spans six paths, carries unclassifiable
// packets, and spaces timestamps irregularly (non-decreasing, as
// Partitioner requires, with occasional ties).
func TestCollectorMatchesOracle(t *testing.T) {
	tc := equivTraceConfig(6, 100_000, int64(1e9))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) < 90_000 {
		t.Fatalf("trace too small for the acceptance scale: %d packets", len(pkts))
	}
	cfg := CollectorConfig{
		HOP:   4,
		Table: tc.Table(),
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
	}

	// An unclassifiable packet interleaved every 1000 packets.
	alien := pkts[0]
	alien.Src = [4]byte{192, 0, 2, 1}
	alien.Dst = [4]byte{198, 51, 100, 1}
	var obs []netsim.Observation
	var tNS int64
	for i := range pkts {
		tNS += int64(hashing.Mix64(uint64(i)) % 20_000)
		obs = append(obs, netsim.Observation{Pkt: &pkts[i], Digest: pkts[i].Digest(1), TimeNS: tNS})
		if i%1000 == 999 {
			obs = append(obs, netsim.Observation{Pkt: &alien, Digest: alien.Digest(1), TimeNS: tNS})
		}
	}
	// Drain every drainEvery observations, Flush at the end.
	const drainEvery = 25_000
	segments := func(yield func(seg []netsim.Observation, last bool)) {
		for off := 0; off < len(obs); off += drainEvery {
			end := min(off+drainEvery, len(obs))
			yield(obs[off:end], end == len(obs))
		}
	}

	oracle := &oracleCollector{cfg: cfg, paths: make(map[packet.PathKey]*oraclePath)}
	var want []oracleCheckpoint
	segments(func(seg []netsim.Observation, last bool) {
		for _, o := range seg {
			oracle.Observe(o.Pkt, o.Digest, o.TimeNS)
		}
		cp := oracleCheckpoint{mem: oracle.memory()}
		cp.wire = oracle.drain(last)
		cp.observed, cp.unclassified = oracle.observed, oracle.unclassified
		want = append(want, cp)
	})
	if want[len(want)-1].unclassified == 0 {
		t.Fatal("test expected unclassified packets")
	}
	if n := want[len(want)-1].mem.ActivePaths; n != 6 {
		t.Fatalf("oracle holds %d active paths, want 6", n)
	}

	feeds := map[string]func(col *Collector, seg []netsim.Observation){
		"Observe": func(col *Collector, seg []netsim.Observation) {
			for _, o := range seg {
				col.Observe(o.Pkt, o.Digest, o.TimeNS)
			}
		},
		"ObserveBatch": func(col *Collector, seg []netsim.Observation) {
			for off := 0; off < len(seg); off += netsim.ReplayBatchSize {
				col.ObserveBatch(seg[off:min(off+netsim.ReplayBatchSize, len(seg))])
			}
		},
	}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, name := range []string{"Observe", "ObserveBatch"} {
			feed := feeds[name]
			t.Run(fmt.Sprintf("shards=%d/%s", shards, name), func(t *testing.T) {
				cfg := cfg
				cfg.Shards = shards
				col, err := NewCollector(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if col.NumShards() != shards {
					t.Fatalf("built %d shards, want %d", col.NumShards(), shards)
				}
				i := 0
				segments(func(seg []netsim.Observation, last bool) {
					feed(col, seg)
					cp := want[i]
					if m := col.Memory(); m != cp.mem {
						t.Errorf("drain %d: memory %+v, oracle %+v", i, m, cp.mem)
					}
					drain := col.Drain
					if last {
						drain = col.Flush
					}
					samples, aggs := drain()
					if !bytes.Equal(encodeReceipts(samples, aggs), cp.wire) {
						t.Errorf("drain %d: receipt wire bytes differ from the oracle", i)
					}
					// Hand the buffers back so later drains run on
					// recycled storage, as the steady state does.
					col.Recycle(samples, aggs)
					if o, u := col.Stats(); o != cp.observed || u != cp.unclassified {
						t.Errorf("drain %d: stats (%d,%d), oracle (%d,%d)", i, o, u, cp.observed, cp.unclassified)
					}
					i++
				})
			})
		}
	}
}

// TestDrainDeterminism is the regression test for the old
// map-iteration drain order: two identical runs must produce identical
// (ordered) drain output, at one shard and at four.
func TestDrainDeterminism(t *testing.T) {
	tc := equivTraceConfig(5, 50_000, int64(400e6))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{1, 4} {
		var prev map[receipt.HOPID][]byte
		for run := 0; run < 2; run++ {
			dep, _ := runDeployment(t, tc, pkts, shards)
			cur := make(map[receipt.HOPID][]byte)
			for id, p := range dep.Processors {
				cur[id] = encodeReceipts(p.Samples, p.Aggs)
			}
			if prev != nil {
				for id, b := range cur {
					if !bytes.Equal(prev[id], b) {
						t.Errorf("shards=%d %v: drain output differs between identical runs", shards, id)
					}
				}
			}
			prev = cur
		}
	}
}

// TestShardedCollectorDirect exercises the collector layer without the
// simulator: single-packet Observe on a one-shard collector versus
// ObserveBatch on an eight-shard one must agree on receipts, counters
// and active paths — including unclassified traffic.
func TestShardedCollectorDirect(t *testing.T) {
	tc := equivTraceConfig(4, 40_000, int64(500e6))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := CollectorConfig{
		HOP:   4,
		Table: tc.Table(),
		PathID: func(key packet.PathKey) receipt.PathID {
			return receipt.PathID{Key: key, PrevHOP: 3, NextHOP: 5, MaxDiffNS: 3_000_000}
		},
		Sampling:    DefaultSamplingConfig(),
		Aggregation: DefaultAggregationConfig(),
		Shards:      1,
	}
	serial, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 8
	sharded, err := NewCollector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.NumShards() != 1 || sharded.NumShards() != 8 {
		t.Fatalf("built %d and %d shards, want 1 and 8", serial.NumShards(), sharded.NumShards())
	}

	// An unclassifiable packet interleaved every 1000 packets.
	alien := pkts[0]
	alien.Src = [4]byte{192, 0, 2, 1}
	alien.Dst = [4]byte{198, 51, 100, 1}

	var batch []netsim.Observation
	flushBatch := func() {
		sharded.ObserveBatch(batch)
		batch = batch[:0]
	}
	for i := range pkts {
		pkt := &pkts[i]
		digest := pkt.Digest(1)
		tNS := int64(i) * 10_000
		serial.Observe(pkt, digest, tNS)
		batch = append(batch, netsim.Observation{Pkt: pkt, Digest: digest, TimeNS: tNS})
		if i%1000 == 999 {
			serial.Observe(&alien, alien.Digest(1), tNS)
			batch = append(batch, netsim.Observation{Pkt: &alien, Digest: alien.Digest(1), TimeNS: tNS})
		}
		if len(batch) >= 4096 {
			flushBatch()
		}
	}
	flushBatch()

	so, su := serial.Stats()
	po, pu := sharded.Stats()
	if so != po || su != pu {
		t.Fatalf("stats differ: serial (%d,%d) sharded (%d,%d)", so, su, po, pu)
	}
	if su == 0 {
		t.Fatal("test expected unclassified packets")
	}
	if sp, pp := serial.Memory().ActivePaths, sharded.Memory().ActivePaths; sp != pp || sp != 4 {
		t.Fatalf("active paths: serial %d sharded %d (want 4)", sp, pp)
	}
	ss, sa := serial.Drain()
	hs, ha := sharded.Drain()
	if !bytes.Equal(encodeReceipts(ss, sa), encodeReceipts(hs, ha)) {
		t.Fatal("drained receipts differ between serial Observe and sharded ObserveBatch")
	}
	ss, sa = serial.Flush()
	hs, ha = sharded.Flush()
	if !bytes.Equal(encodeReceipts(ss, sa), encodeReceipts(hs, ha)) {
		t.Fatal("flushed receipts differ between serial Observe and sharded ObserveBatch")
	}
}

// TestShardedReplayRace drives the fully concurrent configuration —
// parallel per-HOP replay feeding sharded collectors that fan out over
// shard goroutines — so `go test -race` patrols the whole pipeline.
func TestShardedReplayRace(t *testing.T) {
	tc := equivTraceConfig(4, 100_000, int64(1e9))
	pkts, err := trace.Generate(tc)
	if err != nil {
		t.Fatal(err)
	}
	dep, res := runDeployment(t, tc, pkts, 4)
	var observed uint64
	for _, c := range dep.Collectors {
		o, _ := c.Stats()
		observed += o
	}
	if observed == 0 || res.Delivered == 0 {
		t.Fatalf("concurrent run observed nothing: %d observations, %d delivered", observed, res.Delivered)
	}
}
