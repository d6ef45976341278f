package netsim

import (
	"fmt"
	"testing"

	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

func testTrace(t testing.TB, rate float64, durNS int64) []packet.Packet {
	t.Helper()
	pkts, err := trace.Generate(trace.Config{
		Seed:       7,
		DurationNS: durNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(rate)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkts
}

// recorder captures one HOP's observations.
type recorder struct {
	ids   []uint64
	times []int64
}

func (r *recorder) Observe(_ *packet.Packet, digest uint64, tNS int64) {
	r.ids = append(r.ids, digest)
	r.times = append(r.times, tNS)
}

// runOnce is a one-shot run of a default-route topology.
func runOnce(tb testing.TB, p *Topology, pkts []packet.Packet, obs map[receipt.HOPID]Observer) *Result {
	tb.Helper()
	r, err := NewRunner(p)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := r.Run(pkts, obs)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func allRecorders(p *Topology) (map[receipt.HOPID]Observer, map[receipt.HOPID]*recorder) {
	obs := make(map[receipt.HOPID]Observer)
	recs := make(map[receipt.HOPID]*recorder)
	for h := 1; h <= p.NumHOPs(); h++ {
		r := &recorder{}
		obs[receipt.HOPID(h)] = r
		recs[receipt.HOPID(h)] = r
	}
	return obs, recs
}

func TestValidate(t *testing.T) {
	p := &Topology{Domains: []DomainSpec{{Name: "A"}}}
	if err := p.Validate(); err == nil {
		t.Error("single-domain topology accepted")
	}
	p = &Topology{Domains: []DomainSpec{{Name: "A"}, {Name: "B"}}}
	if err := p.Validate(); err == nil {
		t.Error("missing links accepted")
	}
	if _, err := NewRunner(p); err == nil {
		t.Error("runner on invalid topology accepted")
	}
	// Only a topology whose routes are all default routes runs without
	// a prefix table.
	keyed := Fig1Path(1)
	keyed.Routes[0].Key = TopoKeys(1)[0]
	if _, err := NewRunner(keyed); err == nil {
		t.Error("keyed routes accepted without a prefix table")
	}
}

func TestFig1Shape(t *testing.T) {
	p := Fig1Path(1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.NumHOPs() != 8 {
		t.Fatalf("Fig1 has %d HOPs, want 8", p.NumHOPs())
	}
	if len(p.Routes) != 1 || p.Routes[0].Key != (packet.PathKey{}) {
		t.Fatalf("Fig1 routes = %+v, want one default route", p.Routes)
	}
	want := []receipt.HOPID{1, 2, 3, 4, 5, 6, 7, 8}
	if got := p.RouteHOPs(0); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("Fig1 route HOPs = %v, want %v", got, want)
	}
	// HOP owners: S egress 1, L 2/3, X 4/5, N 6/7, D ingress 8.
	for h, name := range []string{1: "S", 2: "L", 3: "L", 4: "X", 5: "X", 6: "N", 7: "N", 8: "D"} {
		if h == 0 {
			continue
		}
		if got := p.Domains[p.HOPDomain(receipt.HOPID(h))].Name; got != name {
			t.Fatalf("HOP %d owned by %s, want %s", h, got, name)
		}
	}
	if p.DomainIndex("nope") != -1 {
		t.Error("bogus domain found")
	}
}

func TestConservation(t *testing.T) {
	p := Fig1Path(2)
	xi := p.DomainIndex("X")
	p.Domains[xi].Loss = lossmodel.NewBernoulli(0.1, stats.NewRNG(3))
	p.Links[1].Loss = lossmodel.NewBernoulli(0.05, stats.NewRNG(4))
	pkts := testTrace(t, 20000, int64(1e9))
	res := runOnce(t, p, pkts, nil)
	if res.Unrouted != 0 {
		t.Fatalf("%d packets unrouted on a default route", res.Unrouted)
	}
	var linkDrops uint64
	for _, d := range res.LinkDrops {
		linkDrops += d
	}
	var domainDrops uint64
	for _, d := range res.Domains {
		domainDrops += d.DroppedInside
	}
	if res.Sent != res.Delivered+int(linkDrops)+int(domainDrops) {
		t.Fatalf("conservation: sent %d != delivered %d + link %d + domain %d",
			res.Sent, res.Delivered, linkDrops, domainDrops)
	}
	x, ok := res.DomainByName("X")
	if !ok {
		t.Fatal("X truth missing")
	}
	if lr := x.LossRate(); lr < 0.07 || lr > 0.13 {
		t.Errorf("X loss rate %v, want ~0.1", lr)
	}
	if _, ok := res.DomainByName("nope"); ok {
		t.Error("bogus domain truth found")
	}
}

func TestTrueDelaysRecorded(t *testing.T) {
	p := Fig1Path(3)
	xi := p.DomainIndex("X")
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(9))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Delay = q
	// The Figure 2 experiments drive 100k pkt/s through X; the bursty
	// scenario is calibrated against that foreground load.
	pkts := testTrace(t, 100000, int64(500e6))
	res := runOnce(t, p, pkts, nil)
	x, _ := res.DomainByName("X")
	if uint64(len(x.TrueDelaysNS)) != x.Out {
		t.Fatalf("%d delays for %d delivered packets", len(x.TrueDelaysNS), x.Out)
	}
	base := float64(p.Domains[xi].BaseDelayNS)
	congested := 0
	for _, d := range x.TrueDelaysNS {
		if d < base {
			t.Fatalf("delay %v below base %v", d, base)
		}
		if d > base+5e6 {
			congested++
		}
	}
	if congested == 0 {
		t.Error("congestion never pushed delay above base+5ms")
	}
	// The uncongested domain L must show much smaller delays.
	l, _ := res.DomainByName("L")
	lMax := stats.Max(l.TrueDelaysNS)
	if lMax > base+float64(p.Domains[1].ReorderJitterNS)+1000 {
		t.Errorf("uncongested L max delay %v too high", lMax)
	}
}

func TestObserverOrderAndCompleteness(t *testing.T) {
	p := Fig1Path(4)
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 20000, int64(300e6))
	res := runOnce(t, p, pkts, obs)
	for h := 1; h <= 8; h++ {
		r := recs[receipt.HOPID(h)]
		for i := 1; i < len(r.times); i++ {
			if r.times[i] < r.times[i-1] {
				t.Fatalf("HOP %d observations out of order at %d", h, i)
			}
		}
	}
	// Lossless path: every HOP sees every packet.
	for h := 1; h <= 8; h++ {
		if got := len(recs[receipt.HOPID(h)].ids); got != res.Sent {
			t.Fatalf("HOP %d saw %d of %d packets on a lossless path", h, got, res.Sent)
		}
	}
}

// TestSharedObserverStaysSequential pins the aliasing contract of the
// parallel replay: when the same Observer instance is attached to
// several HOPs, those HOPs replay sequentially (in HOP order) in one
// goroutine, so a non-thread-safe observer sees exactly what the old
// serial replay delivered.
func TestSharedObserverStaysSequential(t *testing.T) {
	pkts := testTrace(t, 20000, int64(200e6))

	sep4, sep5 := &recorder{}, &recorder{}
	runOnce(t, Fig1Path(12), pkts, map[receipt.HOPID]Observer{4: sep4, 5: sep5})

	shared := &recorder{}
	runOnce(t, Fig1Path(12), pkts, map[receipt.HOPID]Observer{4: shared, 5: shared})

	want := append(append([]uint64{}, sep4.ids...), sep5.ids...)
	if len(shared.ids) != len(want) {
		t.Fatalf("shared observer saw %d observations, want %d", len(shared.ids), len(want))
	}
	for i := range want {
		if shared.ids[i] != want[i] {
			t.Fatalf("shared observer order diverges at %d: HOP replay not sequential", i)
		}
	}
}

// TestBatchObserverDelivery checks that a BatchObserver receives the
// same observations, in the same order, as a plain Observer.
func TestBatchObserverDelivery(t *testing.T) {
	pkts := testTrace(t, 20000, int64(200e6))

	plain := &recorder{}
	runOnce(t, Fig1Path(13), pkts, map[receipt.HOPID]Observer{4: plain})

	batched := &batchRecorder{}
	runOnce(t, Fig1Path(13), pkts, map[receipt.HOPID]Observer{4: batched})

	if batched.singles != 0 {
		t.Fatalf("BatchObserver got %d single-packet calls", batched.singles)
	}
	if batched.batches == 0 {
		t.Fatal("BatchObserver never received a batch")
	}
	if len(batched.ids) != len(plain.ids) {
		t.Fatalf("batched path saw %d observations, plain saw %d", len(batched.ids), len(plain.ids))
	}
	for i := range plain.ids {
		if batched.ids[i] != plain.ids[i] || batched.times[i] != plain.times[i] {
			t.Fatalf("batched delivery diverges from per-packet delivery at %d", i)
		}
	}
}

// batchRecorder records observations through the ObserveBatch fast
// path and counts any stray single-packet deliveries.
type batchRecorder struct {
	recorder
	batches int
	singles int
}

func (r *batchRecorder) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	r.singles++
	r.recorder.Observe(pkt, digest, tNS)
}

func (r *batchRecorder) ObserveBatch(batch []Observation) {
	r.batches++
	for i := range batch {
		r.recorder.Observe(batch[i].Pkt, batch[i].Digest, batch[i].TimeNS)
	}
}

func TestReorderingOccursWithinJitter(t *testing.T) {
	p := Fig1Path(5)
	// Packets at 100k pkt/s are ~10µs apart; 200µs jitter reorders.
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 100000, int64(200e6))
	runOnce(t, p, pkts, obs)
	// Compare arrival order at HOP 1 (send order) and HOP 5 (after
	// domains with jitter).
	order1 := recs[1].ids
	order5 := recs[5].ids
	pos5 := make(map[uint64]int, len(order5))
	for i, id := range order5 {
		pos5[id] = i
	}
	inversions := 0
	prev := -1
	for _, id := range order1 {
		p5, ok := pos5[id]
		if !ok {
			continue
		}
		if p5 < prev {
			inversions++
		}
		if p5 > prev {
			prev = p5
		}
	}
	if inversions == 0 {
		t.Error("no reordering despite jitter >> inter-arrival gap")
	}
}

func TestClockSkewShiftsObservations(t *testing.T) {
	p := Fig1Path(6)
	const skew = 5_000_000
	xi := p.DomainIndex("X")
	p.Domains[xi].IngressSkewNS = skew
	obs, recs := allRecorders(p)
	pkts := testTrace(t, 5000, int64(100e6))
	runOnce(t, p, pkts, obs)
	// HOP 4 (X ingress, skewed) must timestamp later than HOP 3 (L
	// egress) by at least skew (link delay only adds).
	r3, r4 := recs[3], recs[4]
	t3 := make(map[uint64]int64, len(r3.ids))
	for i, id := range r3.ids {
		t3[id] = r3.times[i]
	}
	for i, id := range r4.ids {
		d := r4.times[i] - t3[id]
		if d < skew {
			t.Fatalf("skewed HOP timestamp delta %d below skew %d", d, skew)
		}
	}
}

func TestPreferentialBypassesLossAndDelay(t *testing.T) {
	p := Fig1Path(7)
	xi := p.DomainIndex("X")
	p.Domains[xi].Loss = lossmodel.NewBernoulli(0.5, stats.NewRNG(1))
	p.Domains[xi].Preferential = func(*packet.Packet, uint64) bool { return true }
	pkts := testTrace(t, 10000, int64(200e6))
	res := runOnce(t, p, pkts, nil)
	x, _ := res.DomainByName("X")
	if x.DroppedInside != 0 {
		t.Fatalf("preferential treatment should bypass loss, dropped %d", x.DroppedInside)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		p := Fig1Path(8)
		p.Domains[2].Loss = lossmodel.NewBernoulli(0.2, stats.NewRNG(5))
		pkts := testTrace(t, 20000, int64(200e6))
		return runOnce(t, p, pkts, nil)
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered {
		t.Fatalf("non-deterministic delivery: %d vs %d", a.Delivered, b.Delivered)
	}
	for i := range a.Domains {
		if a.Domains[i].DroppedInside != b.Domains[i].DroppedInside {
			t.Fatalf("non-deterministic drops in %s", a.Domains[i].Name)
		}
	}
}

// TestPathIDFor: on Fig1's default route, HOP h stamps neighbors h-1
// and h+1 (0 past either end) and its own link's MaxDiff — for any key,
// including one no prefix table routes.
func TestPathIDFor(t *testing.T) {
	p := Fig1Path(9)
	p.Links[1].MaxDiffNS = 2_500_000 // L→X, so the two X HOPs differ
	key := packet.PathKey{
		Src: packet.MakePrefix(10, 1, 0, 0, 16),
		Dst: packet.MakePrefix(172, 16, 0, 0, 16),
	}
	unrouted := TopoKeys(3)[2]
	for _, k := range []packet.PathKey{key, unrouted} {
		ingressID := p.PathIDFor(k, 4) // X ingress
		if ingressID.Key != k || ingressID.PrevHOP != 3 || ingressID.NextHOP != 5 {
			t.Errorf("X ingress = %+v, want key %v prev/next 3/5", ingressID, k)
		}
		if ingressID.MaxDiffNS != p.Links[1].MaxDiffNS {
			t.Errorf("X ingress MaxDiff = %d", ingressID.MaxDiffNS)
		}
		egressID := p.PathIDFor(k, 5) // X egress
		if egressID.PrevHOP != 4 || egressID.NextHOP != 6 {
			t.Errorf("X egress prev/next = %v/%v, want 4/6", egressID.PrevHOP, egressID.NextHOP)
		}
		if egressID.MaxDiffNS != p.Links[2].MaxDiffNS {
			t.Errorf("X egress MaxDiff = %d", egressID.MaxDiffNS)
		}
		// Path ends: no prev for HOP 1, no next for HOP 8.
		srcID := p.PathIDFor(k, 1)
		if srcID.PrevHOP != 0 || srcID.NextHOP != 2 {
			t.Errorf("S egress prev/next = %v/%v", srcID.PrevHOP, srcID.NextHOP)
		}
		dstID := p.PathIDFor(k, 8)
		if dstID.PrevHOP != 7 || dstID.NextHOP != 0 {
			t.Errorf("D ingress prev/next = %v/%v", dstID.PrevHOP, dstID.NextHOP)
		}
	}
}

func TestPartialDeploymentRuns(t *testing.T) {
	p := Fig1Path(10)
	// Only HOP 4 observes.
	r := &recorder{}
	obs := map[receipt.HOPID]Observer{4: r}
	pkts := testTrace(t, 5000, int64(100e6))
	runOnce(t, p, pkts, obs)
	if len(r.ids) == 0 {
		t.Error("lone observer saw nothing")
	}
}

func BenchmarkRunFig1(b *testing.B) {
	pkts := testTrace(b, 100000, int64(100e6))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runOnce(b, Fig1Path(11), pkts, nil)
	}
}

// lossyCongestedFig1 builds a Fig1 path with stateful loss and
// congestion inside X, so the Runner's state-persistence claim is
// exercised against every kind of simulation state, not just jitter
// RNGs.
func lossyCongestedFig1(t *testing.T, seed uint64) *Topology {
	t.Helper()
	p := Fig1Path(seed)
	xi := p.DomainIndex("X")
	ge, err := lossmodel.FromTargetLoss(0.05, 8, stats.NewRNG(seed+13))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Loss = ge
	q, err := delaymodel.New(delaymodel.BurstyUDPScenario(seed + 7))
	if err != nil {
		t.Fatal(err)
	}
	p.Domains[xi].Delay = q
	return p
}

// TestRunnerSegmentsMatchOneShot: driving a trace through a Runner in
// epoch-sized segments makes exactly the per-packet drop and delay
// decisions of a single Run — the property continuous operation's
// segment loop relies on. (Only replay delivery grouping differs:
// observations are replayed per segment, so each HOP's multiset of
// observations is compared, not its delivery order.)
func TestRunnerSegmentsMatchOneShot(t *testing.T) {
	pkts := testTrace(t, 20_000, int64(2e8))

	oneObs, oneRecs := allRecorders(Fig1Path(0)) // shape only
	oneShot := lossyCongestedFig1(t, 33)
	resOne := runOnce(t, oneShot, pkts, oneObs)

	segPath := lossyCongestedFig1(t, 33)
	runner, err := NewRunner(segPath)
	if err != nil {
		t.Fatal(err)
	}
	segObs, segRecs := allRecorders(segPath)
	var merged []*Result
	const segments = 4
	per := (len(pkts) + segments - 1) / segments
	for lo := 0; lo < len(pkts); lo += per {
		hi := lo + per
		if hi > len(pkts) {
			hi = len(pkts)
		}
		var res *Result
		var err error
		if hi < len(pkts) {
			// The next segment's packets are all sent at or after the
			// first one's send time — the honest horizon.
			res, err = runner.RunSegment(pkts[lo:hi], segObs, pkts[hi].SentAt)
		} else {
			res, err = runner.Run(pkts[lo:hi], segObs)
		}
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, res)
	}

	// Ground truth must agree exactly once the segments are summed.
	var sent, delivered int
	drops := make([]uint64, len(oneShot.Links))
	perDomain := make([]DomainTruth, len(resOne.Domains))
	for i := range perDomain {
		perDomain[i].Name = resOne.Domains[i].Name
	}
	for _, res := range merged {
		sent += res.Sent
		delivered += res.Delivered
		for i, d := range res.LinkDrops {
			drops[i] += d
		}
		for i, d := range res.Domains {
			perDomain[i].In += d.In
			perDomain[i].Out += d.Out
			perDomain[i].DroppedInside += d.DroppedInside
			perDomain[i].TrueDelaysNS = append(perDomain[i].TrueDelaysNS, d.TrueDelaysNS...)
		}
	}
	if sent != resOne.Sent || delivered != resOne.Delivered {
		t.Fatalf("sent/delivered differ: segments (%d,%d) one-shot (%d,%d)",
			sent, delivered, resOne.Sent, resOne.Delivered)
	}
	for i := range drops {
		if drops[i] != resOne.LinkDrops[i] {
			t.Fatalf("link %d drops differ: %d vs %d", i, drops[i], resOne.LinkDrops[i])
		}
	}
	for i, d := range perDomain {
		o := resOne.Domains[i]
		if d.In != o.In || d.Out != o.Out || d.DroppedInside != o.DroppedInside {
			t.Fatalf("domain %s truth differs: segments %+v one-shot In=%d Out=%d Dropped=%d",
				d.Name, d, o.In, o.Out, o.DroppedInside)
		}
		if len(d.TrueDelaysNS) != len(o.TrueDelaysNS) {
			t.Fatalf("domain %s delay count differs: %d vs %d", d.Name, len(d.TrueDelaysNS), len(o.TrueDelaysNS))
		}
		for j := range d.TrueDelaysNS {
			if d.TrueDelaysNS[j] != o.TrueDelaysNS[j] {
				t.Fatalf("domain %s delay %d differs", d.Name, j)
			}
		}
	}

	// Every HOP saw the identical observation sequence — same packets,
	// same times, same delivery order. Replay withholding is what makes
	// this exact: boundary-overlap observations are merged into the
	// next segment's arrival-ordered replay instead of being delivered
	// early.
	for hop, one := range oneRecs {
		seg := segRecs[hop]
		if len(one.ids) != len(seg.ids) {
			t.Fatalf("%v observation count differs: %d vs %d", hop, len(one.ids), len(seg.ids))
		}
		for i := range one.ids {
			if one.ids[i] != seg.ids[i] || one.times[i] != seg.times[i] {
				t.Fatalf("%v observation %d differs: one-shot (%x, %d) segmented (%x, %d)",
					hop, i, one.ids[i], one.times[i], seg.ids[i], seg.times[i])
			}
		}
	}
}
