package netsim

import (
	"testing"

	"vpm/internal/hashing"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// collectObs records every observation an observer sees.
type collectObs struct {
	ids   []uint64
	times []int64
}

func (c *collectObs) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	c.ids = append(c.ids, digest)
	c.times = append(c.times, tNS)
}

// wearTestBatch builds a deterministic observation batch.
func wearTestBatch(n int) []Observation {
	pkts := make([]packet.Packet, n)
	batch := make([]Observation, n)
	for i := range batch {
		batch[i] = Observation{Pkt: &pkts[i], Digest: uint64(i)*0x9e3779b97f4a7c15 + 1, TimeNS: int64(i) * 1000}
	}
	return batch
}

func TestWearDelayShaver(t *testing.T) {
	var honest, worn collectObs
	Deliver(&honest, wearTestBatch(64))
	Deliver(Wear(1, &DelayShaver{ShaveNS: 500}, &worn), wearTestBatch(64))
	if len(worn.ids) != len(honest.ids) {
		t.Fatalf("shaver changed the observation count: %d vs %d", len(worn.ids), len(honest.ids))
	}
	for i := range worn.times {
		if worn.times[i] != honest.times[i]-500 {
			t.Fatalf("obs %d: time %d, want %d", i, worn.times[i], honest.times[i]-500)
		}
	}
}

func TestWearSuppressorDeterministic(t *testing.T) {
	runOnce := func() []uint64 {
		var c collectObs
		obs := Wear(1, &Suppressor{Fraction: 0.3, Seed: 42}, &c)
		Deliver(obs, wearTestBatch(512))
		return c.ids
	}
	a, b := runOnce(), runOnce()
	if len(a) == 0 || len(a) == 512 {
		t.Fatalf("suppressor dropped nothing or everything: kept %d of 512", len(a))
	}
	if len(a) != len(b) {
		t.Fatalf("suppressor nondeterministic: %d vs %d kept", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("suppressor nondeterministic at %d", i)
		}
	}
	// Roughly the configured fraction survives.
	if kept := float64(len(a)) / 512; kept < 0.6 || kept > 0.8 {
		t.Fatalf("suppressor kept %.2f, want ~0.70", kept)
	}
}

func TestWearMarkerShaverOnlyMarkers(t *testing.T) {
	mu := hashing.ThresholdForRate(0.25) // plenty of "markers" in the test batch
	var honest, worn collectObs
	Deliver(&honest, wearTestBatch(256))
	Deliver(Wear(1, &MarkerShaver{Mu: mu, ShaveNS: 900}, &worn), wearTestBatch(256))
	if len(worn.ids) != len(honest.ids) {
		t.Fatalf("marker shaver changed the count")
	}
	shaved := 0
	for i := range worn.ids {
		if worn.ids[i] != honest.ids[i] {
			t.Fatalf("marker shaver reordered the stream at %d", i)
		}
		want := honest.times[i]
		if hashing.Exceeds(honest.ids[i], mu) {
			want -= 900
			shaved++
		}
		if worn.times[i] != want {
			t.Fatalf("obs %d: time %d, want %d", i, worn.times[i], want)
		}
	}
	if shaved == 0 {
		t.Fatal("no markers in the test batch; mu miscalibrated")
	}
}

// TestWearOnPath: a worn HOP corrupts only its own receipts — the
// neighboring HOPs' observation streams are untouched, which is the
// §2.1 threat-model boundary the whole verification story rests on.
func TestWearOnPath(t *testing.T) {
	path := Fig1Path(3)
	pkts := make([]packet.Packet, 2000)
	for i := range pkts {
		pkts[i] = packet.Packet{
			Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 0, 0, 2},
			SrcPort: uint16(i), DstPort: 80,
			Proto: packet.ProtoUDP, TotalLen: 128,
			SentAt: int64(i) * 10_000,
		}
	}
	run := func(adv Adversary) (map[receipt.HOPID][]int64, *Result) {
		// One comparable observer per HOP: distinct pointers keep each
		// HOP in its own replay group (ObserverFunc closures would all
		// share one group and see every HOP's stream).
		sinks := make(map[receipt.HOPID]*collectObs, 8)
		observers := make(map[receipt.HOPID]Observer, 8)
		for h := receipt.HOPID(1); h <= 8; h++ {
			c := &collectObs{}
			sinks[h] = c
			var obs Observer = c
			if h == 5 && adv != nil {
				obs = Wear(h, adv, obs)
			}
			observers[h] = obs
		}
		res := runOnce(t, path, pkts, observers)
		times := make(map[receipt.HOPID][]int64, 8)
		for h, c := range sinks {
			times[h] = c.times
		}
		return times, res
	}
	honest, resH := run(nil)
	worn, resW := run(&DelayShaver{ShaveNS: 1000})
	if resH.Delivered != resW.Delivered {
		t.Fatalf("wearing an adversary changed ground truth: %d vs %d delivered", resH.Delivered, resW.Delivered)
	}
	for h := receipt.HOPID(1); h <= 8; h++ {
		if h == 5 {
			continue
		}
		if len(honest[h]) != len(worn[h]) {
			t.Fatalf("HOP %d stream length changed: %d vs %d", h, len(honest[h]), len(worn[h]))
		}
		for i := range honest[h] {
			if honest[h][i] != worn[h][i] {
				t.Fatalf("HOP %d: honest neighbor's observations changed at %d", h, i)
			}
		}
	}
	for i := range worn[5] {
		if worn[5][i] != honest[5][i]-1000 {
			t.Fatalf("worn HOP 5 time %d: got %d want %d", i, worn[5][i], honest[5][i]-1000)
		}
	}
}
