package experiments

import (
	"bytes"
	"runtime"
	"testing"

	"vpm/internal/core"
	"vpm/internal/fleet"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
)

// TestRunContinuous drives the full continuous pipeline — per-epoch
// simulation segments, signed epoch-tagged bundles over the bus, the
// windowed store, rolling verification overlapping ingest, and
// retention-based eviction — at smoke scale, and asserts the
// steady-state properties the design promises.
func TestRunContinuous(t *testing.T) {
	cfg := Config{Seed: 3, RatePPS: 20_000}
	const epochs, retention = 12, 2
	ec := core.EpochConfig{IntervalNS: 25_000_000, Retention: retention, Workers: 1, Shards: 1}

	var reported []core.EpochID
	res, err := RunContinuous(cfg, ec, epochs, func(rep core.EpochReport, _ core.WindowStats) {
		reported = append(reported, rep.Epoch)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.EpochsRun != epochs {
		t.Fatalf("ran %d epochs, want %d", res.EpochsRun, epochs)
	}
	if res.EpochsSealed < epochs || len(res.Reports) != res.EpochsSealed {
		t.Fatalf("sealed %d epochs but produced %d reports", res.EpochsSealed, len(res.Reports))
	}
	for i, e := range reported {
		if e != core.EpochID(i) {
			t.Fatalf("reports out of order: %v", reported)
		}
	}
	if res.Violations != 0 {
		t.Fatalf("healthy continuous run produced %d violations", res.Violations)
	}
	if res.MatchedSamples == 0 || res.SampleReceipts == 0 {
		t.Fatalf("no receipts flowed: %+v", res)
	}
	// Bounded steady state: the window never outgrows retention plus
	// the verification/ingest in-flight epochs.
	if bound := retention + 2; res.Window.Segments > bound {
		t.Fatalf("window holds %d segments after shutdown; bound %d", res.Window.Segments, bound)
	}
	if res.Window.Evicted == 0 {
		t.Fatal("a 12-epoch run with retention 2 must have evicted something")
	}
}

// TestRunContinuousValidation: the engine rejects broken epoch
// configurations up front.
func TestRunContinuousValidation(t *testing.T) {
	cfg := Config{Seed: 1, RatePPS: 1000}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 0, Retention: 1}, 2, nil, nil); err == nil {
		t.Fatal("zero interval accepted")
	}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 0}, 2, nil, nil); err == nil {
		t.Fatal("zero retention accepted")
	}
	if _, err := RunContinuous(cfg, core.EpochConfig{IntervalNS: 1e7, Retention: 1}, 0, nil, nil); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestEpochsRows: the benchmark emits the batch baseline plus one row
// per retention, with consistent packet accounting across modes.
func TestEpochsRows(t *testing.T) {
	cfg := Config{Seed: 2, RatePPS: 10_000, DurationNS: 25_000_000}
	rows, err := Epochs(cfg, 4, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("expected batch + 1 continuous row, got %d", len(rows))
	}
	if rows[0].Mode != "batch" || rows[1].Mode != "continuous" {
		t.Fatalf("unexpected modes: %q, %q", rows[0].Mode, rows[1].Mode)
	}
	if rows[0].Packets != rows[1].Packets {
		t.Fatalf("modes saw different traffic: %d vs %d packets", rows[0].Packets, rows[1].Packets)
	}
	if rows[1].SegmentsHeld > 2+2 {
		t.Fatalf("continuous row held %d segments", rows[1].SegmentsHeld)
	}
	if rows[1].EpochsPerSec <= 0 || rows[1].HeapMB <= 0 {
		t.Fatalf("missing throughput/heap stats: %+v", rows[1])
	}
	if EpochsRender(rows, false) == "" || EpochsRender(rows, true) == "" {
		t.Fatal("renderers returned nothing")
	}
}

// TestFingerprintsIndependentOfGOMAXPROCS: with EpochConfig.Shards at
// 0 each HOP collector's shard count (and with Workers at 0 the
// verifier pools) follows GOMAXPROCS, which must not change one byte
// of the verdict stream. The Fig1 arm carries one traffic key: domain
// X is lossy and fabricates receipts, and the SPRT arm is on, so the
// reports carry violations, blame and sequential verdicts. The mesh
// arm (a small fleet reference world, also at Shards 0 and Workers 0)
// spreads 64 keys over several shards and verifier workers, so drain
// and verification order are exercised too.
func TestFingerprintsIndependentOfGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := Config{Seed: 7, RatePPS: 50_000}
	ec := core.EpochConfig{IntervalNS: 60_000_000, Retention: 2, Workers: 0, Shards: 0}
	dc := matrixDeploy()
	spec := fleet.Spec{Seed: 42, Domains: 8, ExtraLinks: 6, Keys: 64, Epochs: 3,
		IntervalNS: 50_000_000, RatePPS: 60_000, Collectors: 1, Workers: 0}
	encode := func(reports []core.EpochReport) []byte {
		var stream []byte
		for _, rep := range reports {
			b, err := core.EncodeEpochReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(append(stream, b...), '\n')
		}
		return stream
	}
	var wantFig1, wantMesh []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		sc := seqdetect.DefaultConfig()
		res, err := RunContinuousOpts(cfg, ec, 6, ContinuousOptions{
			Deploy: &dc,
			MutatePath: func(p *netsim.Topology) {
				ge, err := lossmodel.FromTargetLoss(0.05, 8, stats.NewRNG(cfg.Seed+29))
				if err != nil {
					t.Fatal(err)
				}
				p.Domains[p.DomainIndex("X")].Loss = ge
			},
			WrapSink: func(sink core.EpochSink) core.EpochSink {
				return core.NewAdversarySink(sink, fabricatorForX(netsim.Fig1Path(cfg.Seed+1000)))
			},
			Sequential: &sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		world, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		meshReports, err := fleet.RunReference(world, 0)
		if err != nil {
			t.Fatal(err)
		}
		fig1, mesh := encode(res.Reports), encode(meshReports)
		if wantFig1 == nil {
			seq := 0
			for _, rep := range res.Reports {
				seq += len(rep.Seq)
			}
			if res.MatchedSamples == 0 || res.Violations == 0 || seq == 0 || !bytes.Contains(mesh, []byte(`"Keys"`)) {
				t.Fatalf("GOMAXPROCS=%d: %d matched samples, %d violations, %d sequential verdicts, mesh keys reported: %v — the comparison would prove nothing",
					procs, res.MatchedSamples, res.Violations, seq, bytes.Contains(mesh, []byte(`"Keys"`)))
			}
			wantFig1, wantMesh = fig1, mesh
			continue
		}
		if !bytes.Equal(fig1, wantFig1) {
			t.Errorf("GOMAXPROCS=%d: Fig1 epoch report stream differs from GOMAXPROCS=1", procs)
		}
		if !bytes.Equal(mesh, wantMesh) {
			t.Errorf("GOMAXPROCS=%d: mesh epoch report stream differs from GOMAXPROCS=1", procs)
		}
	}
}
