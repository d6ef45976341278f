// Package netsim simulates the inter-domain forwarding substrate of
// the paper's setup (§2). A Topology is a directed domain graph whose
// links each carry two HOPs — the sending domain's egress onto the
// link and the receiving domain's ingress off it — plus a route table
// that maps origin-prefix traffic keys to HOP sequences. Figure 1's
// S → L → X → N → D is one such route: Fig1Path and LinearPath build
// the chain with a single default route, the zero PathKey
// (0.0.0.0/0 → 0.0.0.0/0), which longest-prefix matching reads as
// "every packet", so every packet crosses HOPs 1..2(n-1) in order.
// Packets traverse inter-domain links (propagation delay, jitter,
// optional loss) and intra-domain crossings (base delay, optional
// congestion via a delaymodel.Queue, optional loss, jitter-induced
// reordering, per-HOP clock skew).
//
// The Runner computes every packet's observation time at every HOP,
// then replays each HOP's observations in arrival order to the
// attached Observer (the VPM collector, a baseline, or nothing for a
// non-deploying domain). Ground truth — per-domain loss counts and
// true per-packet delays — is recorded on the side for the
// experiments' accuracy metrics.
//
// Concurrency: the per-packet forwarding sweep is serial by design —
// loss processes and congestion queues are stateful, so drop and delay
// decisions are only deterministic when consulted in send order, and
// ground truth accumulates in that same sweep without atomics. The
// expensive phases around it run in parallel: packet digests are
// computed by a chunked worker pool, and each HOP's observation replay
// runs in its own goroutine (bounded by a worker pool), delivering that
// HOP's observations in arrival order as batches. HOPs that share an
// Observer instance are grouped into one goroutine, so an observer
// never sees concurrent calls; distinct observers must tolerate running
// concurrently with each other.
package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"

	"vpm/internal/hashing"
	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
)

// DelaySource yields a per-packet delay for a congested crossing.
// delaymodel.Queue implements it. Arrival times are non-decreasing in
// packet send order but may regress slightly under upstream jitter;
// implementations must tolerate that (delaymodel.Queue does).
type DelaySource interface {
	DelayOf(tNS int64, pktBytes int) int64
}

// FixedDelay is a DelaySource with a constant delay.
type FixedDelay int64

// DelayOf returns the fixed delay.
func (d FixedDelay) DelayOf(int64, int) int64 { return int64(d) }

// Observer receives one HOP's packet observations in arrival order.
// The packet pointer is valid only for the duration of the call
// (NoCopy semantics); digest is the packet's 64-bit ID under the
// deployment seed.
type Observer interface {
	Observe(pkt *packet.Packet, digest uint64, tNS int64)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(pkt *packet.Packet, digest uint64, tNS int64)

// Observe calls f.
func (f ObserverFunc) Observe(pkt *packet.Packet, digest uint64, tNS int64) { f(pkt, digest, tNS) }

// Observation is one packet observation at a HOP: the packet, its
// 64-bit digest under the deployment seed, and the HOP's (possibly
// skewed) observation timestamp. The packet pointer is valid only for
// the duration of the ObserveBatch call that carries it.
type Observation struct {
	Pkt    *packet.Packet
	Digest uint64
	TimeNS int64
}

// BatchObserver is the batched extension of Observer: observers that
// implement it receive observations in arrival-order slices, amortizing
// dispatch and classification over the batch instead of paying one
// virtual call per packet. core.Collector and core.EpochCollector
// implement it; Deliver is the compatibility shim for observers that
// only implement single-packet Observe.
type BatchObserver interface {
	ObserveBatch(batch []Observation)
}

// Deliver feeds a batch of observations to obs: through ObserveBatch
// when obs implements BatchObserver, one Observe call per packet
// otherwise. The batch must be in arrival order.
func Deliver(obs Observer, batch []Observation) {
	if bo, ok := obs.(BatchObserver); ok {
		bo.ObserveBatch(batch)
		return
	}
	for i := range batch {
		obs.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

// DomainSpec describes one domain of a topology.
type DomainSpec struct {
	// Name labels the domain ("S", "L", "X", ...).
	Name string
	// Loss is the intra-domain loss process (nil: lossless).
	Loss lossmodel.Process
	// Delay is the intra-domain congestion delay source (nil: only
	// BaseDelayNS applies). Stub domains never use it.
	Delay DelaySource
	// BaseDelayNS is the constant intra-domain transit delay.
	BaseDelayNS int64
	// ReorderJitterNS adds uniform per-packet jitter in
	// [0, ReorderJitterNS] to the crossing, which reorders packets
	// that arrive closer together than the jitter.
	ReorderJitterNS int64
	// IngressSkewNS / EgressSkewNS offset the observation clocks of
	// the domain's HOPs (imperfect NTP sync, §4).
	IngressSkewNS, EgressSkewNS int64
	// Preferential, if non-nil, is consulted for every packet
	// crossing the domain; returning true exempts the packet from the
	// domain's loss and congestion delay. This models the "strategic
	// treatment" attack of §3.2 (only exploitable when the adversary
	// can predict which packets are measured).
	Preferential func(pkt *packet.Packet, digest uint64) bool
}

// LinkSpec describes one inter-domain link.
type LinkSpec struct {
	// DelayNS is the nominal propagation delay.
	DelayNS int64
	// JitterNS adds uniform per-packet jitter in [0, JitterNS].
	JitterNS int64
	// MaxDiffNS is the timestamp-difference bound the two adjacent
	// HOPs advertise for this link (must cover delay + jitter + skew
	// for honest receipts to stay consistent).
	MaxDiffNS int64
	// Loss makes the link itself faulty (nil: healthy).
	Loss lossmodel.Process
}

// DomainTruth is the ground truth recorded for one domain. A domain
// may own many HOPs, so the counters aggregate every route crossing
// it.
type DomainTruth struct {
	Name          string
	In, Out       uint64
	DroppedInside uint64
	TrueDelaysNS  []float64 // egress minus ingress true time per delivered packet
}

// LossRate returns the domain's actual loss rate for this run.
func (d DomainTruth) LossRate() float64 {
	if d.In == 0 {
		return 0
	}
	return float64(d.DroppedInside) / float64(d.In)
}

// Result is the ground truth of one simulation segment.
type Result struct {
	Sent      int
	Delivered int
	// Unrouted counts packets no route carries: their key, or the
	// packet itself when it matches no prefix, has no route and the
	// topology has no default route. Cross-traffic outside the route
	// table crosses no HOP.
	Unrouted int
	// Domains holds per-domain ground truth, indexed like
	// Topology.Domains (origin and destination included; they never
	// drop or delay).
	Domains []DomainTruth
	// LinkDrops counts packets lost on each directed link, indexed
	// like Topology.Links.
	LinkDrops []uint64
	// RouteDelivered counts delivered packets per route, indexed like
	// Topology.Routes — the ECMP split observed.
	RouteDelivered []int
}

// DomainByName returns the truth record for the named domain.
func (r *Result) DomainByName(name string) (*DomainTruth, bool) {
	for i := range r.Domains {
		if r.Domains[i].Name == name {
			return &r.Domains[i], true
		}
	}
	return nil, false
}

// hopObservation is one (packet, time) event at a HOP.
type hopObservation struct {
	pktIdx int32
	timeNS int64
}

// pendingObs is one withheld observation, self-contained.
type pendingObs struct {
	pkt    packet.Packet
	digest uint64
	timeNS int64
}

// Runner drives traffic across a topology in consecutive segments
// while behaving exactly like one uninterrupted run over the
// concatenated trace. Two mechanisms make the equivalence hold:
//
//   - All randomness state persists between calls: the jitter RNG
//     streams (created once, from the topology seed) and the stateful
//     loss and congestion processes attached to the topology's specs.
//     Per-packet drop/delay decisions depend only on the packet
//     sequence, so segmentation never changes them.
//   - Replay withholding: a packet sent near the end of a segment
//     arrives at downstream HOPs after packets of the next segment
//     have started arriving, so replaying each segment to completion
//     would deliver those observations out of arrival order. RunSegment
//     therefore withholds, per HOP, every observation that could still
//     interleave with a future packet (observation time past the
//     segment horizon plus the HOP's minimum observation delay) and
//     merges it into the next segment's arrival-ordered replay. The
//     delivered stream is identical, observation for observation, to a
//     one-shot run's (TestRunnerSegmentsMatchOneShot) — which is what
//     lets the continuous pipeline's receipts match batch receipts
//     exactly.
type Runner struct {
	t *Topology
	// table classifies packets into traffic keys; nil when every
	// route is a default route, since then classification cannot
	// change a packet's routes.
	table *packet.Table
	// Per-domain reorder-jitter and per-link jitter RNG streams, split
	// once from the topology seed in domain-then-link order.
	jitterRngs []*stats.RNG
	linkRngs   []*stats.RNG
	// defaults are the default routes, resolved once: the routes of
	// every packet the table does not send elsewhere.
	defaults  []int
	routeDoms [][]int
	// routeSalt keys the ECMP split so it is uncorrelated with the
	// digest comparisons the sampling layer makes.
	routeSalt uint64
	// minObsNS is each HOP's minimum observation delay after a
	// packet's send time: propagation + base transit (jitter,
	// congestion and queueing only add) plus the HOP's clock skew.
	minObsNS []int64
	// pending holds each HOP's withheld observations (packet values
	// copied out of the dead segment slice), time-sorted.
	pending [][]pendingObs
}

// NewRunner prepares a runner for a topology whose routes are all
// default routes (Fig1Path, LinearPath): NewTopoRunner with no prefix
// table.
func NewRunner(t *Topology) (*Runner, error) { return NewTopoRunner(t, nil) }

// NewTopoRunner validates the topology and prepares persistent
// simulation state. table classifies packet addresses into traffic
// keys (build it from the trace config, as deployments do); it may be
// nil only when every route is a default route.
func NewTopoRunner(t *Topology, table *packet.Table) (*Runner, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	keyed := false
	for i := range t.Routes {
		if t.Routes[i].Key != (packet.PathKey{}) {
			keyed = true
			break
		}
	}
	if !keyed {
		table = nil
	} else if table == nil {
		return nil, fmt.Errorf("netsim: a topology with keyed routes needs a prefix table")
	}
	rng := stats.NewRNG(t.Seed ^ 0xabcdef)
	nHops := t.NumHOPs()
	r := &Runner{
		t:          t,
		table:      table,
		jitterRngs: make([]*stats.RNG, len(t.Domains)),
		linkRngs:   make([]*stats.RNG, len(t.Links)),
		defaults:   t.RoutesForKey(packet.PathKey{}),
		routeDoms:  make([][]int, len(t.Routes)),
		routeSalt:  t.Seed ^ 0x9e3779b97f4a7c15,
		minObsNS:   make([]int64, nHops+1),
		pending:    make([][]pendingObs, nHops+1),
	}
	for i := range r.jitterRngs {
		r.jitterRngs[i] = rng.Split()
	}
	for i := range r.linkRngs {
		r.linkRngs[i] = rng.Split()
	}
	// Minimum observation delay per HOP: the minimum over all routes
	// through it of the cumulative link propagation + base transit
	// delay, plus the HOP's clock skew.
	seen := make([]bool, nHops+1)
	for ri := range t.Routes {
		doms := t.RouteDomains(ri)
		r.routeDoms[ri] = doms
		acc := int64(0)
		for j, li := range t.Routes[ri].Links {
			eg, in := t.LinkHOPs(li)
			egT := acc + t.Domains[doms[j]].EgressSkewNS
			if !seen[eg] || egT < r.minObsNS[eg] {
				r.minObsNS[eg] = egT
				seen[eg] = true
			}
			acc += t.Links[li].DelayNS
			inT := acc + t.Domains[doms[j+1]].IngressSkewNS
			if !seen[in] || inT < r.minObsNS[in] {
				r.minObsNS[in] = inT
				seen[in] = true
			}
			acc += t.Domains[doms[j+1]].BaseDelayNS
		}
	}
	return r, nil
}

// Run drives one final (or sole) segment: every observation, including
// any withheld by earlier RunSegment calls, is delivered. Equivalent
// to RunSegment with an unbounded horizon; call with an empty packet
// slice to flush withheld observations after an early stop.
func (r *Runner) Run(pkts []packet.Packet, observers map[receipt.HOPID]Observer) (*Result, error) {
	return r.RunSegment(pkts, observers, int64(1)<<62)
}

// RunSegment drives one segment of traffic (in send order) across the
// topology, delivering each HOP's observations in arrival-time order
// to the corresponding observer, and returns that segment's ground
// truth. observers maps HOP ID → Observer; HOPs without an entry are
// non-deploying (partial deployment, §8). horizonNS promises that
// every future packet is sent at or after it; observations that could
// still interleave with such packets are withheld and delivered by the
// next call, keeping each HOP's replay in global arrival order across
// segments.
func (r *Runner) RunSegment(pkts []packet.Packet, observers map[receipt.HOPID]Observer, horizonNS int64) (*Result, error) {
	t := r.t
	res := &Result{
		Sent:           len(pkts),
		LinkDrops:      make([]uint64, len(t.Links)),
		RouteDelivered: make([]int, len(t.Routes)),
	}
	for d := range t.Domains {
		res.Domains = append(res.Domains, DomainTruth{Name: t.Domains[d].Name})
	}

	digests := make([]uint64, len(pkts))
	parallelChunks(len(pkts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			digests[i] = pkts[i].Digest(t.Seed)
		}
	})

	obsPerHop := make([][]hopObservation, t.NumHOPs()+1) // 1-based HOP IDs
	record := func(hop receipt.HOPID, pktIdx int, tm int64) {
		obsPerHop[hop] = append(obsPerHop[hop], hopObservation{pktIdx: int32(pktIdx), timeNS: tm})
	}

	for i := range pkts {
		pkt := &pkts[i]
		routes := r.defaults
		if r.table != nil {
			if key, ok := r.table.Classify(pkt); ok {
				routes = t.RoutesForKey(key)
			}
		}
		if len(routes) == 0 {
			res.Unrouted++
			continue
		}
		ri := routes[0]
		if len(routes) > 1 {
			// ECMP: split by a salted digest hash, the flow-hash a
			// router would compute — deterministic per packet, and
			// uncorrelated with the marker/sampling digest comparisons.
			ri = routes[int(hashing.SampleFcn(digests[i], r.routeSalt)%uint64(len(routes)))]
		}
		rt := &t.Routes[ri]
		doms := r.routeDoms[ri]
		tm := pkt.SentAt

		// Origin domain: observed at its egress onto the first link.
		srcEg, _ := t.LinkHOPs(rt.Links[0])
		record(srcEg, i, tm+t.Domains[doms[0]].EgressSkewNS)
		res.Domains[doms[0]].In++
		res.Domains[doms[0]].Out++

		for j, li := range rt.Links {
			link := &t.Links[li]
			if link.Loss != nil && link.Loss.Drop() {
				res.LinkDrops[li]++
				break
			}
			tm += link.DelayNS
			if link.JitterNS > 0 {
				tm += int64(r.linkRngs[li].Float64() * float64(link.JitterNS))
			}

			di := doms[j+1]
			dom := &t.Domains[di]
			truth := &res.Domains[di]
			_, in := t.LinkHOPs(li)
			arrived := tm
			record(in, i, arrived+dom.IngressSkewNS)
			truth.In++

			if j == len(rt.Links)-1 {
				// Destination domain: delivered.
				truth.Out++
				res.Delivered++
				res.RouteDelivered[ri]++
				break
			}

			// Intra-domain crossing to the egress onto the next link.
			preferred := dom.Preferential != nil && dom.Preferential(pkt, digests[i])
			if !preferred && dom.Loss != nil && dom.Loss.Drop() {
				truth.DroppedInside++
				break
			}
			tm += dom.BaseDelayNS
			if !preferred && dom.Delay != nil {
				tm += dom.Delay.DelayOf(arrived, pkt.WireLen())
			}
			if dom.ReorderJitterNS > 0 {
				tm += int64(r.jitterRngs[di].Float64() * float64(dom.ReorderJitterNS))
			}
			eg, _ := t.LinkHOPs(rt.Links[j+1])
			record(eg, i, tm+dom.EgressSkewNS)
			truth.Out++
			truth.TrueDelaysNS = append(truth.TrueDelaysNS, float64(tm-arrived))
		}
	}

	r.replay(obsPerHop, observers, pkts, digests, horizonNS)
	return res, nil
}

// replay delivers every HOP's deliverable observations in arrival
// order: HOPs replay concurrently (one goroutine per observer group,
// bounded by a worker pool); within a HOP, observations are delivered
// in arrival-order batches through the BatchObserver fast path. HOPs
// that share an Observer instance replay sequentially in one
// goroutine, preserving the serial semantics an aliased observer
// expects. Observations past the horizon (plus the HOP's minimum
// observation delay) are withheld for the next segment's merge.
func (r *Runner) replay(obsPerHop [][]hopObservation, observers map[receipt.HOPID]Observer, pkts []packet.Packet, digests []uint64, horizonNS int64) {
	nHops := len(r.minObsNS) - 1
	var groups []replayGroup
	for hop := 1; hop <= nHops; hop++ {
		obs, ok := observers[receipt.HOPID(hop)]
		if !ok || obs == nil {
			continue
		}
		if gi := findGroup(groups, obs); gi >= 0 {
			groups[gi].hops = append(groups[gi].hops, hop)
		} else {
			groups = append(groups, replayGroup{obs: obs, hops: []int{hop}})
		}
	}
	sem := make(chan struct{}, replayWorkers())
	var wg sync.WaitGroup
	for gi := range groups {
		g := &groups[gi]
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			batch := make([]Observation, 0, ReplayBatchSize)
			for _, hop := range g.hops {
				events := obsPerHop[hop]
				sort.SliceStable(events, func(a, b int) bool { return events[a].timeNS < events[b].timeNS })
				// Everything observable past the cutoff could still
				// interleave with a future packet's observation: hold
				// it back for the next segment's merge. Ties at the
				// cutoff are safe to deliver — a future observation at
				// the same timestamp sorts after them (stable order is
				// insertion order, and future packets insert later).
				cutoff := horizonNS + r.minObsNS[hop]
				pend := r.pending[hop]
				pn := len(pend)
				for pn > 0 && pend[pn-1].timeNS > cutoff {
					pn--
				}
				en := len(events)
				for en > 0 && events[en-1].timeNS > cutoff {
					en--
				}
				// Merge the two time-sorted deliverable runs, pending
				// first on ties (earlier insertion order).
				batch = batch[:0]
				pi, ei := 0, 0
				for pi < pn || ei < en {
					if pi < pn && (ei >= en || pend[pi].timeNS <= events[ei].timeNS) {
						po := &pend[pi]
						batch = append(batch, Observation{Pkt: &po.pkt, Digest: po.digest, TimeNS: po.timeNS})
						pi++
					} else {
						e := events[ei]
						batch = append(batch, Observation{Pkt: &pkts[e.pktIdx], Digest: digests[e.pktIdx], TimeNS: e.timeNS})
						ei++
					}
					if len(batch) == ReplayBatchSize {
						Deliver(g.obs, batch)
						batch = batch[:0]
					}
				}
				if len(batch) > 0 {
					Deliver(g.obs, batch)
					batch = batch[:0]
				}
				// Withheld observations outlive this segment's packet
				// slice: copy them out. The concatenation is NOT sorted
				// — an old pending observation delayed by congestion
				// can carry a later timestamp than a newly withheld one
				// — so the stable sort below is load-bearing: it
				// restores time order while keeping pending entries
				// ahead of new ones on ties (their insertion order).
				rest := pend[:0]
				rest = append(rest, pend[pn:]...)
				for _, e := range events[en:] {
					rest = append(rest, pendingObs{pkt: pkts[e.pktIdx], digest: digests[e.pktIdx], timeNS: e.timeNS})
				}
				sort.SliceStable(rest, func(a, b int) bool { return rest[a].timeNS < rest[b].timeNS })
				r.pending[hop] = rest
			}
		}()
	}
	wg.Wait()
}

// ReplayBatchSize is the observation-slice granularity of the replay
// (and of the throughput measurements, which feed collectors the same
// way): large enough to amortize batch dispatch and keep the sharded
// collector's per-shard runs long, small enough that the per-goroutine
// scratch slice (~100 KB) stays cache-friendly. 4096 measured ~10%
// faster than 2048 on the Fig1 workload.
const ReplayBatchSize = 4096

// replayGroup is the replay work of one observer: all HOPs attached to
// the same Observer instance, replayed sequentially in HOP order.
type replayGroup struct {
	obs  Observer
	hops []int
}

// findGroup returns the index of the group that must also replay obs,
// or -1 for a new group. Comparable observers group by identity.
// Observers of non-comparable dynamic type (e.g. ObserverFunc) cannot
// be tested for identity, so they all share one sequential group —
// conservatively preserving the serial-replay guarantee for a closure
// registered under several HOPs, at the cost of parallelism between
// distinct non-comparable observers.
func findGroup(groups []replayGroup, obs Observer) int {
	comparable := reflect.TypeOf(obs).Comparable()
	for i := range groups {
		gc := reflect.TypeOf(groups[i].obs).Comparable()
		if !comparable && !gc {
			return i
		}
		if comparable && gc && groups[i].obs == obs {
			return i
		}
	}
	return -1
}

// replayWorkers bounds the number of concurrently replaying observer
// groups. At least two even on a single-core box, so the race detector
// exercises the concurrent replay path.
func replayWorkers() int {
	if n := runtime.GOMAXPROCS(0); n > 2 {
		return n
	}
	return 2
}

// parallelChunks runs fn over [0,n) split into contiguous chunks, one
// per worker. fn must only touch its own index range.
func parallelChunks(n int, fn func(lo, hi int)) {
	workers := replayWorkers()
	const minChunk = 4096
	if n < 2*minChunk || workers < 2 {
		fn(0, n)
		return
	}
	if n < workers*minChunk {
		workers = n / minChunk
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
