// Package core implements VPM itself — the paper's primary
// contribution. It ties the substrate packages together into the
// NetFlow-like monitoring platform of §7:
//
//   - Collector: the data-plane module at a HOP. For every packet it
//     looks up the HOP path, updates the open aggregate receipt
//     (Algorithm 2), and feeds the temporary packet buffer of the
//     bias-resistant delay sampler (Algorithm 1). Its per-packet work
//     is a path lookup, a digest comparison, a counter update and a
//     buffer append — the "three memory accesses, one hash function,
//     and one timestamp computation" budget of §7.1.
//   - Processor: the control-plane module that periodically drains
//     finalized receipts from the collector and accounts for the
//     bandwidth they consume.
//   - Deployment: wires collectors onto every HOP of a simulated path.
//   - Verifier: consumes receipts from all HOPs of a path, estimates
//     each domain's loss (exactly, via the aggregate join) and delay
//     quantiles (probabilistically, via matched samples), and checks
//     inter-domain consistency to expose liars (§4).
//   - Adversary helpers: the receipt-fabrication strategies of the
//     threat model.
package core

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"vpm/internal/aggregation"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/sampling"
	"vpm/internal/streamagg"
)

// Backend selects how a collector aggregates sampled delay state.
type Backend int

const (
	// BackendExact (the zero value) retains every sampled record
	// exactly — the verification oracle and the historical default.
	BackendExact Backend = iota
	// BackendSketch thins retained records through a system-wide
	// KeepFilter and maintains pooled streaming summary state
	// (count + IBLT + interarrival histogram) per path, sealed via
	// DrainSketches at epoch close. Receipts still carry the retained
	// subsample, which every HOP computes identically, so the §4
	// record-for-record consistency checks keep working.
	BackendSketch
)

// CollectorConfig configures one HOP's collector.
type CollectorConfig struct {
	// HOP is the reporting HOP's identity.
	HOP receipt.HOPID
	// Table classifies packet addresses into origin prefixes.
	Table *packet.Table
	// PathID derives the full PathID (prev/next HOP, MaxDiff) this
	// HOP stamps on receipts for a given origin-prefix pair. With more
	// than one shard the Collector invokes it concurrently from its
	// shard goroutines when new paths appear, so the function must be
	// safe for concurrent use (a pure function of key, the common case, is
	// always fine). It must also be injective — distinct keys map to
	// distinct PathIDs (natural, since the PathID embeds the key);
	// collectors assume one PathID names one path when draining.
	PathID func(key packet.PathKey) receipt.PathID
	// Sampling configures Algorithm 1 (µ is system-wide, σ local).
	Sampling sampling.Config
	// Aggregation configures Algorithm 2 (δ local, J system-wide).
	Aggregation aggregation.Config
	// Shards is the number of shards the Collector hash-partitions
	// paths across: 0 means auto (GOMAXPROCS), N means N shards. One
	// shard runs inline on the calling goroutine.
	Shards int
	// Backend selects exact sample retention (the zero value) or the
	// streaming sketch backend.
	Backend Backend
	// Sketch configures the streaming backend; only consulted when
	// Backend == BackendSketch.
	Sketch streamagg.Config
	// EvictIdleEpochs, when positive, evicts a path's state after it
	// has seen no observations for that many consecutive Drains: the
	// path's open aggregate is force-flushed into the evicting Drain
	// (its packets are reported exactly once, just on an idle-timeout
	// cut instead of a hash-selected one) and the sampler's stale
	// pre-marker buffer is discarded. This keeps the monitoring cache
	// bounded by the *active* working set under path churn, at the cost
	// of an extra aggregate boundary on idle-then-resumed paths. All
	// HOPs of a deployment must use the same value — they see the same
	// traffic, so they evict the same paths at the same rotations and
	// receipts stay comparable. 0 (the default) never evicts — the
	// historical behavior, and the byte-identity baseline.
	EvictIdleEpochs int
}

// Validate checks the configuration.
func (c CollectorConfig) Validate() error {
	if c.Table == nil {
		return fmt.Errorf("core: collector needs a prefix table")
	}
	if c.PathID == nil {
		return fmt.Errorf("core: collector needs a PathID builder")
	}
	if c.Shards < 0 {
		return fmt.Errorf("core: negative shard count %d", c.Shards)
	}
	if c.EvictIdleEpochs < 0 {
		return fmt.Errorf("core: negative idle-eviction threshold %d", c.EvictIdleEpochs)
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if c.Backend == BackendSketch {
		if err := c.Sketch.Validate(); err != nil {
			return err
		}
		if c.Sketch.MarkerRate != c.Sampling.MarkerRate {
			return fmt.Errorf("core: sketch marker rate %v differs from sampling marker rate %v",
				c.Sketch.MarkerRate, c.Sampling.MarkerRate)
		}
	}
	return c.Aggregation.Validate()
}

// pathState is the collector's per-active-path state: one open
// aggregate receipt and the sampler's temporary buffer (§7.1's
// monitoring-cache entry), plus — under BackendSketch — the lazily
// created streaming summary.
type pathState struct {
	id      receipt.PathID
	sampler *sampling.Sampler
	part    *aggregation.Partitioner
	sketch  *streamagg.PathSketch

	// touched records whether the path saw any observation since the
	// last Drain; idleDrains counts consecutive untouched Drains. They
	// drive the opt-in idle eviction (CollectorConfig.EvictIdleEpochs).
	touched    bool
	idleDrains int32
}

// backend is the streaming-backend plumbing shared by every shard of
// a collector: the keep filter and one sketch pool (sync.Pool-backed, safe for concurrent shard use).
type backend struct {
	sketch bool
	keep   streamagg.KeepFilter
	pool   *streamagg.Pool
}

func newBackend(cfg *CollectorConfig) backend {
	if cfg.Backend != BackendSketch {
		return backend{}
	}
	return backend{
		sketch: true,
		keep:   streamagg.NewKeepFilter(cfg.Sketch.KeepRate, cfg.Sketch.Salt, cfg.Sketch.MarkerRate),
		pool:   streamagg.NewPool(cfg.Sketch.SketchCells, cfg.Sketch.SketchSeed),
	}
}

// newPathState builds one path's state, wiring the thinning filter and
// the streaming sink when the sketch backend is on. The PathSketch
// itself is created lazily on the first sampled record — only a small
// fraction of paths see a sample in any interval, and pool-recycled
// sketches carry ~16 KiB of histogram state each.
func (b *backend) newPathState(cfg *CollectorConfig, key packet.PathKey) *pathState {
	id := cfg.PathID(key)
	//lint:ignore hotpath once per newly seen path, amortized over that path's whole packet stream
	st := &pathState{
		id:      id,
		sampler: sampling.New(cfg.Sampling),
		part:    aggregation.New(cfg.Aggregation, id),
	}
	if b.sketch {
		st.sampler.SetKeep(b.keep.Keep)
		pool := b.pool
		//lint:ignore hotpath sink closure is bound once at path setup, not per packet
		st.sampler.SetSink(func(pktID uint64, tNS int64) {
			if st.sketch == nil {
				st.sketch = pool.Get(st.id)
			}
			st.sketch.Observe(pktID, tNS)
		})
	}
	return st
}

// drainPath moves one path's finalized receipts into (samples, aggs)
// and applies the idle-eviction policy: when the path has been
// untouched for evictAfter consecutive Drains (and its sketch, if any,
// has been sealed away), its open aggregate is force-flushed into this
// drain and evict=true tells the caller to delete the state. With
// evictAfter == 0 the policy is off and every path drains the
// historical way.
func drainPath(st *pathState, evictAfter int, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) (_ []receipt.SampleReceipt, _ []receipt.AggReceipt, evict bool) {
	if recs := st.sampler.Take(); len(recs) > 0 {
		samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
	}
	if st.touched {
		st.touched = false
		st.idleDrains = 0
	} else if evictAfter > 0 {
		st.idleDrains++
		if st.idleDrains >= int32(evictAfter) && st.sketch == nil {
			flushed := st.part.Flush()
			aggs = append(aggs, flushed...)
			return samples, aggs, true
		}
	}
	taken := st.part.Take()
	aggs = append(aggs, taken...)
	st.part.Recycle(taken)
	return samples, aggs, false
}

// sortReceipts puts drained receipts into the canonical deterministic
// order: sample receipts sorted by PathID; aggregate receipts stably
// sorted by PathID only, so each path's aggregates keep their stream
// order (CombineAggregates relies on it).
func sortReceipts(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	//lint:ignore hotpath two comparator closures once per drain, not per packet
	sort.Slice(samples, func(a, b int) bool {
		return samples[a].Path.Compare(samples[b].Path) < 0
	})
	//lint:ignore hotpath see above: once per drain
	sort.SliceStable(aggs, func(a, b int) bool {
		return aggs[a].Path.Compare(aggs[b].Path) < 0
	})
}

// MemoryStats is the §7.1 memory-budget breakdown of a collector.
type MemoryStats struct {
	// ActivePaths is the number of paths with live state.
	ActivePaths int
	// MonitoringCacheBytes is the per-path open-receipt state: the
	// paper's "PathID, AggID, and PktCnt — roughly 20 bytes" per
	// path, at our encoding's actual size.
	MonitoringCacheBytes int
	// TempBufferPeakEntries is the high-water mark of the delay
	// sampler's temporary packet buffer across paths (entries).
	TempBufferPeakEntries int
	// TempBufferPeakBytes converts the peak to bytes at the wire size
	// of one 〈PktID, Time〉 record.
	TempBufferPeakBytes int
}

// Collector is the data-plane module of one HOP. It implements
// netsim.Observer and netsim.BatchObserver. It hash-partitions
// PathKeys across N shards, each owning its own path map, sampler and
// partitioner state, so the per-packet path needs no locks — the §7.1
// budget of three memory accesses, one hash function and one
// timestamp computation, the way a real router shards by interface.
// Each path's stream lands wholly in one shard, in arrival order, so
// the receipts do not depend on the shard count.
//
// Concurrency model: Observe/ObserveBatch/Drain/Flush must be called
// from one goroutine at a time (netsim's replay gives each HOP's
// observer its own goroutine); inside ObserveBatch the busy shards
// process their sub-batches concurrently and the call returns only
// when all shards are done. The calling goroutine runs the last busy
// shard itself, so a one-shard collector starts no goroutine.
type Collector struct {
	cfg     CollectorConfig
	backend backend
	shards  []*shard
	cache   [classifyCacheSize]classifyEntry
	epoch   EpochID

	// Dispatcher scratch, reused across ObserveBatch calls so the
	// steady-state batch path allocates nothing.
	busy []*shard
	wg   sync.WaitGroup

	// Recycled outer receipt slices for Drain/Flush (see Recycle).
	spareSamples []receipt.SampleReceipt
	spareAggs    []receipt.AggReceipt

	observed     uint64
	unclassified uint64
}

// NewCollector builds a collector with cfg.Shards shards (0 =
// GOMAXPROCS).
func NewCollector(cfg CollectorConfig) (*Collector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Shards
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	c := &Collector{cfg: cfg, shards: make([]*shard, n)}
	c.backend = newBackend(&c.cfg)
	for i := range c.shards {
		c.shards[i] = &shard{cfg: &c.cfg, backend: &c.backend, paths: make(map[packet.PathKey]*pathState)}
	}
	return c, nil
}

// NumShards returns the shard count.
func (c *Collector) NumShards() int { return len(c.shards) }

// HOP returns the collector's HOP identity.
func (c *Collector) HOP() receipt.HOPID { return c.cfg.HOP }

// Observe processes one packet observation: classify, aggregate,
// sample. digest is the packet's 64-bit ID; tNS the HOP's (possibly
// skewed) observation timestamp. It runs the owning shard inline.
//
//vpm:hotpath
func (c *Collector) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.observed++
	key, hash, sh, ok := c.classify(pkt)
	if !ok {
		c.unclassified++
		return
	}
	st := c.shards[sh].stateFor(key, hash)
	st.touched = true
	st.part.Observe(digest, tNS)
	st.sampler.Observe(digest, tNS)
}

// ObserveBatch processes a batch of observations: the dispatcher
// classifies and partitions the batch into per-shard sub-batches
// (preserving arrival order within each shard), then the busy shards
// run concurrently — the calling goroutine runs the last one itself.
//
//vpm:hotpath
func (c *Collector) ObserveBatch(batch []netsim.Observation) {
	c.observed += uint64(len(batch))
	for i := range batch {
		key, hash, sh, ok := c.classify(batch[i].Pkt)
		if !ok {
			c.unclassified++
			continue
		}
		s := c.shards[sh]
		s.recs = append(s.recs, receipt.SampleRecord{PktID: batch[i].Digest, TimeNS: batch[i].TimeNS})
		if n := len(s.runs); n > 0 {
			if r := &s.runs[n-1]; r.hash == hash && r.key == key {
				r.n++
				continue
			}
		}
		s.runs = append(s.runs, shardRun{key: key, hash: hash, n: 1})
	}
	busy := c.busy[:0]
	for _, s := range c.shards {
		if len(s.recs) > 0 {
			busy = append(busy, s)
		}
	}
	c.busy = busy
	if len(busy) == 0 {
		return
	}
	// The dispatcher processes the last busy shard itself instead of
	// parking in Wait — one fewer goroutine handoff per batch. The
	// workers run a plain method with explicit arguments (no closure)
	// so spawning them allocates nothing in steady state.
	for _, s := range busy[:len(busy)-1] {
		c.wg.Add(1)
		go c.runShard(s)
	}
	busy[len(busy)-1].process()
	c.wg.Wait()
}

// runShard processes one shard's sub-batch on a worker goroutine.
func (c *Collector) runShard(s *shard) {
	s.process()
	c.wg.Done()
}

// Drain returns the receipts finalized since the last Drain across
// all shards: one sample receipt per path that sampled anything plus
// all closed aggregate receipts, merged per path via the ⊎
// combination operators and sorted by PathID — identical runs drain
// identical receipt sequences at every shard count. The control-plane
// processor calls this periodically.
//
//vpm:hotpath
func (c *Collector) Drain() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for _, s := range c.shards {
		evicted := false
		for key, st := range s.paths {
			var evict bool
			samples, aggs, evict = drainPath(st, c.cfg.EvictIdleEpochs, samples, aggs)
			if evict {
				delete(s.paths, key)
				evicted = true
			}
		}
		if evicted {
			// The state memo holds raw *pathState pointers; a stale hit
			// on an evicted path would resurrect state the path map no
			// longer drains. Eviction epochs are rare, so a wholesale
			// clear beats per-entry bookkeeping.
			s.memo = [stateMemoSize]stateMemoEntry{}
		}
	}
	samples = mergeSamplesByPath(samples)
	sortReceipts(samples, aggs)
	return samples, aggs
}

// takeSpares hands out the recycled outer receipt slices (nil when the
// caller never recycles — the allocating, always-safe default).
func (c *Collector) takeSpares() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.spareSamples, c.spareAggs
	c.spareSamples, c.spareAggs = nil, nil
	return samples, aggs
}

// Flush finalizes all shards' open state and returns the remaining
// receipts, in the same deterministic order as Drain.
func (c *Collector) Flush() ([]receipt.SampleReceipt, []receipt.AggReceipt) {
	samples, aggs := c.takeSpares()
	for _, s := range c.shards {
		for _, st := range s.paths {
			flushed := st.part.Flush()
			aggs = append(aggs, flushed...)
			st.part.Recycle(flushed)
			if recs := st.sampler.Take(); len(recs) > 0 {
				samples = append(samples, receipt.SampleReceipt{Path: st.id, Samples: recs})
			}
		}
	}
	samples = mergeSamplesByPath(samples)
	sortReceipts(samples, aggs)
	return samples, aggs
}

// Recycle hands the buffers of a previous Drain/Flush result back for
// reuse: the outer slices return to the dispatcher, each receipt's
// record buffer to its owning shard's sampler. Safe only when nothing
// retains the result: only call with the exact slices that call
// returned — retaining callers (the Processor, the windowed store)
// simply never call it.
func (c *Collector) Recycle(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
	for i := range samples {
		key := samples[i].Path.Key
		s := c.shards[pathKeyHash(key)%uint64(len(c.shards))]
		if st, ok := s.paths[key]; ok {
			st.sampler.Recycle(samples[i].Samples)
		}
	}
	if cap(samples) > cap(c.spareSamples) {
		c.spareSamples = samples[:0]
	}
	if cap(aggs) > cap(c.spareAggs) {
		c.spareAggs = aggs[:0]
	}
}

// DrainSketches seals and returns the streaming sketches of every path
// that sampled at least one packet since the last call, PathID-sorted
// across shards. Ownership passes to the caller; return them via
// SketchPool().Put.
func (c *Collector) DrainSketches() []*streamagg.PathSketch {
	var out []*streamagg.PathSketch
	for _, s := range c.shards {
		for _, st := range s.paths {
			if st.sketch != nil {
				out = append(out, st.sketch)
				st.sketch = nil
			}
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Path.Compare(out[b].Path) < 0 })
	return out
}

// SketchPool returns the pool sealed sketches recycle through (nil
// under BackendExact).
func (c *Collector) SketchPool() *streamagg.Pool { return c.backend.pool }

// mergeSamplesByPath combines sample receipts that share a PathID via
// receipt.CombineSamples, upholding Drain's one-receipt-per-path
// contract. With an injective PathID builder (the documented
// requirement) duplicates cannot occur; the merge keeps drains
// identical at every shard count even if a caller breaks it.
func mergeSamplesByPath(samples []receipt.SampleReceipt) []receipt.SampleReceipt {
	//lint:ignore hotpath one dedup map per drain, not per packet
	byPath := make(map[receipt.PathID]int, len(samples))
	out := samples[:0]
	for _, s := range samples {
		if i, ok := byPath[s.Path]; ok {
			merged, err := receipt.CombineSamples(out[i], s)
			if err != nil {
				// Unreachable: entries are grouped by identical
				// PathID, the only error CombineSamples has. Loud is
				// better than silently dropping measurements.
				panic(err)
			}
			out[i] = merged
			continue
		}
		byPath[s.Path] = len(out)
		out = append(out, s)
	}
	return out
}

// Memory reports the §7.1 memory accounting aggregated across shards:
// path counts and cache bytes sum, the temp-buffer peak is the
// per-shard maximum (each shard owns its own buffers).
func (c *Collector) Memory() MemoryStats {
	var m MemoryStats
	for _, s := range c.shards {
		m.ActivePaths += len(s.paths)
		m.MonitoringCacheBytes += len(s.paths) * receipt.BaseAggReceiptBytes
		for _, st := range s.paths {
			if hw := st.sampler.TempHighWater(); hw > m.TempBufferPeakEntries {
				m.TempBufferPeakEntries = hw
			}
		}
	}
	m.TempBufferPeakBytes = m.TempBufferPeakEntries * receipt.SampleRecordBytes
	return m
}

// Stats returns (packets observed, packets that matched no prefix).
func (c *Collector) Stats() (observed, unclassified uint64) {
	return c.observed, c.unclassified
}
