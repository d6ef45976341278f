package experiments

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"vpm/internal/core"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/quantile"
	"vpm/internal/seqdetect"
	"vpm/internal/stats"
)

// Pinned verdict fingerprints. Each is the leading 8 bytes of the
// SHA-256 of one verdict stream; a refactor of the verification code
// must leave every one unchanged. Update a constant only together with
// a deliberate, documented change to what the verifier decides.
const (
	pinnedFig1Batch      = "bcd7479a25b3f7ef"
	pinnedMeshBatch      = "b7335790ddc2f5a7"
	pinnedFig1Continuous = "f12c9a676d086501"
	// pinnedAttackMatrix hashes the JSON of the reduced-scale attack
	// matrix rows (TestAttackMatrix).
	pinnedAttackMatrix = "d1db916f60756eef"
)

func fingerprint(stream []byte) string {
	sum := sha256.Sum256(stream)
	return fmt.Sprintf("%x", sum[:8])
}

// TestVerdictFingerprintsPinned hashes three verdict streams and
// compares them with constants: the batch link verdicts and domain
// reports of a Fig1 run with a lossy X, the same for one mesh family
// world with a faulty shared link, and the per-epoch report stream of
// an armed continuous Fig1 run (loss in X plus a fabricating X, the SPRT
// arm on). Equivalence tests compare two paths of the current code with
// each other; this test compares the current code with its past.
func TestVerdictFingerprintsPinned(t *testing.T) {
	cfg := Config{Seed: 7, RatePPS: 50_000, DurationNS: 300_000_000}.Normalize()

	t.Run("fig1-batch", func(t *testing.T) {
		w, err := buildWorld(cfg, worldOpt{lossX: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		v := w.dep.NewVerifier(w.key)
		var text strings.Builder
		for _, lv := range v.VerifyAllLinks() {
			fmt.Fprintf(&text, "%+v\n", lv)
		}
		reps, err := v.DomainReports(quantile.DefaultQuantiles, cfg.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		for _, rep := range reps {
			fmt.Fprintf(&text, "%+v\n", rep)
		}
		if !strings.Contains(text.String(), "Lost:") {
			t.Fatal("no loss report in the verdict text — the fingerprint would prove nothing")
		}
		if got := fingerprint([]byte(text.String())); got != pinnedFig1Batch {
			t.Errorf("Fig1 batch verdict fingerprint %s, pinned %s", got, pinnedFig1Batch)
		}
	})

	t.Run("mesh-batch", func(t *testing.T) {
		f := topoFamilies()[3] // random-as: organic overlap, several routes per key
		world, _, err := runTopoWorld(cfg, f, true, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		text, _, _, matched, _, err := world.topoSweep(1, cfg.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		if matched == 0 {
			t.Fatal("no matched samples — the fingerprint would prove nothing")
		}
		if got := fingerprint([]byte(text)); got != pinnedMeshBatch {
			t.Errorf("mesh batch verdict fingerprint %s, pinned %s", got, pinnedMeshBatch)
		}
	})

	t.Run("fig1-continuous", func(t *testing.T) {
		ccfg := Config{Seed: 7, RatePPS: 50_000}
		ec := core.EpochConfig{IntervalNS: 60_000_000, Retention: 2, Workers: 0, Shards: 0}
		dc := matrixDeploy()
		sc := seqdetect.DefaultConfig()
		res, err := RunContinuousOpts(ccfg, ec, 6, ContinuousOptions{
			Deploy: &dc,
			MutatePath: func(p *netsim.Topology) {
				ge, err := lossmodel.FromTargetLoss(0.05, 8, stats.NewRNG(ccfg.Seed+29))
				if err != nil {
					t.Fatal(err)
				}
				p.Domains[p.DomainIndex("X")].Loss = ge
			},
			WrapSink: func(sink core.EpochSink) core.EpochSink {
				return core.NewAdversarySink(sink, fabricatorForX(netsim.Fig1Path(ccfg.Seed+1000)))
			},
			Sequential: &sc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Violations == 0 {
			t.Fatal("no violations — the fingerprint would prove nothing")
		}
		var stream []byte
		for _, rep := range res.Reports {
			b, err := core.EncodeEpochReport(rep)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(append(stream, b...), '\n')
		}
		if got := fingerprint(stream); got != pinnedFig1Continuous {
			t.Errorf("continuous Fig1 epoch report fingerprint %s, pinned %s", got, pinnedFig1Continuous)
		}
	})
}
