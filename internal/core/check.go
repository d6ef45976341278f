package core

import (
	"fmt"

	"vpm/internal/aggregation"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// This file implements the §4 link check and the per-domain estimates
// once, for both batch verification and rolling per-epoch verification.
//
// A check works on two scopes:
//
//   - claims — the receipts whose records the check judges, each
//     record judged exactly once;
//   - evidence (the view) — the receipts the claims are matched
//     against.
//
// A batch check (Verifier.CheckLink, Verifier.DomainReport, and the
// whole-stream sweep Deployment.Sweep) judges the whole stream: its
// claims are its view, and no edge is left to trim.
//
// Per-epoch verification cannot simply run the batch check over one
// epoch's receipts: receipts for the same packet legitimately seal in
// adjacent epochs at different HOPs. A sample is sealed in the epoch of
// its *deciding marker* (Algorithm 1 decides a packet only when the
// next marker arrives), and the same marker crosses each HOP at a
// slightly different local time; likewise an aggregate seals where its
// cutting point lands. The skew is bounded by one interval (marker
// transit and propagation delay are far below any sane epoch length),
// so a per-epoch check's claims are the receipts sealed in the target
// epoch and its view is the ±1-epoch window around it, which contains
// the counterpart records of every claim.
//
// Missing-record judgments iterate the claims but match against the
// evidence, so boundary spill never reads as a lie. Per-epoch aggregate
// counts are compared only over regions bounded by cutting points
// common to both ends within the view (Join's half-open edge regions
// are trimmed); the untrimmed whole-stream comparison is the batch
// verdict, which continuous operation reproduces byte-for-byte when
// epochs are unioned (TestBatchContinuousEquivalence).

// checkScope bundles the two scopes of one verification.
type checkScope struct {
	view *Verifier // evidence, configured
	// claims resolves the records the check judges. A whole-stream
	// scope's claims read the view's own store; a per-epoch scope's
	// read the target epoch's receipts for the view's traffic key.
	claims Verifier
	// headComplete reports that the view's lower edge is the true
	// stream start (epoch 0 is inside the view): nothing precedes the
	// first joined pair, so no patch-up evidence is missing at its
	// leading boundary and the head region may be compared.
	headComplete bool
	// tailComplete reports that nothing exists beyond the view's upper
	// edge (the stream finished at or inside it), so Join's tail
	// region is bounded and may be compared.
	tailComplete bool
	// seq, when non-nil, captures per-packet evidence for the
	// sequential arm (see seqarm.go). The checks only append to it;
	// the sweep feeds it to the engine after its worker pool drains,
	// in deterministic work order.
	seq *seqCollector
}

// wholeStream returns the batch scope over v: the claims are the view.
func (v *Verifier) wholeStream() *checkScope {
	return &checkScope{view: v, claims: *v}
}

// linkCheck is the §4 link check: MaxDiff agreement, the timestamp
// bound and missing-record checks for the claimed packets, and
// aggregate-count equality over the joined aggregates the scope can
// judge. Packets are visited in each HOP's first-arrival order, so the
// verdict — including the order of its violations — is deterministic.
func (s *checkScope) linkCheck(up, down receipt.HOPID) LinkVerdict {
	v := s.view
	lv := LinkVerdict{Up: up, Down: down}
	iu, id := v.indexFor(up), v.indexFor(down)
	pu, hasU := iu.path()
	pd, hasD := id.path()
	if hasU && hasD && pu.MaxDiffNS != pd.MaxDiffNS {
		lv.Violations = append(lv.Violations, receipt.Inconsistency{
			Kind:   receipt.MaxDiffMismatch,
			Detail: fmt.Sprintf("%v advertises %dns, %v advertises %dns", up, pu.MaxDiffNS, down, pd.MaxDiffNS),
		})
	}
	maxDiff := pu.MaxDiffNS

	cuUniq, _ := s.claims.indexFor(up).snapshot()
	cdUniq, _ := s.claims.indexFor(down).snapshot()
	_, su := iu.snapshot()
	_, sd := id.snapshot()
	// The sequential arm's trial streams, in claims order: linkItems
	// interleaves keep/drop Bernoulli trials with matched link deltas
	// (one mixed slice serves both the loss and the delay detector —
	// each skips the other's kinds); fabItems is the mirror-direction
	// trial stream over the downstream HOP's claims.
	var linkItems, fabItems []seqdetect.Evidence
	var missingDown, missingUp []receipt.Inconsistency
	for _, pid := range cuUniq {
		tu := su[pid]
		td, ok := sd[pid]
		if !ok {
			if v.expectedSampled(iu, down, pid) {
				missingDown = append(missingDown, receipt.Inconsistency{
					Kind:  receipt.MissingDownstream,
					PktID: pid,
					Detail: fmt.Sprintf("delivered by %v, unreported by %v",
						up, down),
				})
				if s.seq != nil {
					linkItems = append(linkItems, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
			continue
		}
		lv.MatchedSamples++
		delta := td - tu
		if s.seq != nil {
			linkItems = append(linkItems,
				seqdetect.Evidence{Kind: seqdetect.KindKeep},
				seqdetect.Evidence{Kind: seqdetect.KindDelta, Value: float64(delta)})
		}
		if delta > maxDiff {
			lv.Violations = append(lv.Violations, receipt.Inconsistency{
				Kind:   receipt.DelayBound,
				PktID:  pid,
				Detail: fmt.Sprintf("link delta %dns exceeds MaxDiff %dns", delta, maxDiff),
			})
		}
	}
	for _, pid := range cdUniq {
		if _, ok := su[pid]; !ok {
			if v.expectedSampled(id, up, pid) {
				missingUp = append(missingUp, receipt.Inconsistency{
					Kind:  receipt.MissingUpstream,
					PktID: pid,
					Detail: fmt.Sprintf("reported received by %v, never reported delivered by %v",
						down, up),
				})
				if s.seq != nil {
					fabItems = append(fabItems, seqdetect.Evidence{Kind: seqdetect.KindDrop})
				}
			}
		} else if s.seq != nil {
			fabItems = append(fabItems, seqdetect.Evidence{Kind: seqdetect.KindKeep})
		}
	}
	if s.seq != nil {
		sc := seqLinkScope(v.key, up, down)
		s.seq.add(sc, seqdetect.ClassLoss, linkItems)
		s.seq.add(sc, seqdetect.ClassDelay, linkItems)
		s.seq.add(sc, seqdetect.ClassFabricate, fabItems)
	}
	lv.MissingDown, lv.MissingUp = len(missingDown), len(missingUp)
	// Symmetric §5.3 reorder noise is absorbed before judging;
	// asymmetric excess — real loss or lies — keeps its full weight
	// (TestCheckLinkSymmetricReorderNoise,
	// TestRollingVerifierFlagsFaultyLink).
	tol := v.missingTolerance(lv.MatchedSamples)
	judgeDown, judgeUp := absorbSymmetricNoise(lv.MissingDown, lv.MissingUp, v.reorderNoiseFloor(up, down))
	if judgeDown > tol {
		lv.Violations = append(lv.Violations, missingDown...)
	}
	if judgeUp > tol {
		lv.Violations = append(lv.Violations, missingUp...)
	}

	if ra, rb := iu.aggReceipts(), id.aggReceipts(); len(ra) > 0 && len(rb) > 0 {
		pairs := aggregation.JoinAligned(ra, rb)
		for _, p := range s.boundedPairs(pairs, ra, rb) {
			lv.Violations = append(lv.Violations, receipt.CheckAggPair(p.A, p.B)...)
		}
	}
	return lv
}

// boundedPairs trims a joined sequence to the pairs whose packet
// regions can actually be judged inside the evidence window. A
// whole-stream scope judges every pair: nothing lies outside its view.
// A per-epoch scope keeps:
//
//   - Interior pairs — bounded by cutting points common to both HOPs,
//     with a preceding pair in view — always: PatchUp already migrated
//     reordered packets across both of their boundaries.
//   - The head pair only when the view reaches the true stream start
//     AND both sequences begin at the same packet; otherwise its
//     leading boundary's patch-up evidence (the AggTrans of the
//     preceding, out-of-view aggregate) is missing and a few
//     legitimately migrated packets would read as a count lie.
//   - The tail pair only when nothing beyond the view can extend
//     either sequence (stream finished inside the window).
//
// Half-open edge regions compare receipts for different packet sets —
// seal-epoch skew, not lies — and are left to the reports whose view
// does bound them; the whole-stream batch check remains the complete
// backstop.
func (s *checkScope) boundedPairs(pairs []aggregation.Pair, a, b []receipt.AggReceipt) []aggregation.Pair {
	if s.claims.store == s.view.store {
		return pairs
	}
	lo, hi := 0, len(pairs)
	if !s.headComplete || a[0].Agg.First != b[0].Agg.First {
		lo = 1
	}
	if !s.tailComplete {
		hi--
	}
	if lo >= hi {
		return nil
	}
	return pairs[lo:hi]
}

// loss computes the aggregate-based loss between two HOPs via the §6
// join + patch-up pipeline, totalled over the pairs the scope can
// judge. It reports false when either HOP filed no aggregate receipts.
func (s *checkScope) loss(a, b receipt.HOPID) (LossReport, bool) {
	ra, rb := s.view.indexFor(a).aggReceipts(), s.view.indexFor(b).aggReceipts()
	if len(ra) == 0 || len(rb) == 0 {
		return LossReport{}, false
	}
	pairs := aggregation.Join(ra, rb)
	rep := LossReport{Migrations: aggregation.PatchUp(pairs)}
	rep.Pairs = s.boundedPairs(pairs, ra, rb)
	for _, p := range rep.Pairs {
		rep.In += int64(p.A.PktCnt)
		rep.Lost += p.Lost()
	}
	return rep, true
}

// domainReport estimates one domain's loss and delay: delays from the
// egress HOP's claimed samples (each sample contributes to exactly one
// estimate), loss from the joined aggregates the scope can judge.
func (s *checkScope) domainReport(seg Segment, qs []float64, confidence float64) (DomainReport, error) {
	v := s.view
	rep := DomainReport{Name: seg.Name, Ingress: seg.Up, Egress: seg.Down}

	if seg.Partial {
		// ECMP branch/merge point: the two HOPs see different subsets
		// of the key's packets, so aggregate counts are not comparable
		// (see Segment.Partial). Delay estimates below still are.
		rep.PartialLoss = true
	} else if loss, ok := s.loss(seg.Up, seg.Down); ok {
		rep.Loss = loss
	}

	cdUniq, _ := s.claims.indexFor(seg.Down).snapshot()
	_, si := v.indexFor(seg.Up).snapshot()
	_, se := v.indexFor(seg.Down).snapshot()
	delays := make([]float64, 0, len(cdUniq))
	var biasItems []seqdetect.Evidence
	// Without MarkerThreshold the marker/σ-sample split is unknown and
	// no sequential bias stream is collected — the same precondition
	// CheckMarkerBias has.
	collectBias := s.seq != nil && v.cfg.MarkerThreshold != 0
	for _, pid := range cdUniq {
		if ti, ok := si[pid]; ok {
			d := float64(se[pid] - ti)
			delays = append(delays, d)
			if collectBias {
				biasItems = append(biasItems, seqdetect.Evidence{
					Kind:  seqMarkerKind(pid, v.cfg.MarkerThreshold),
					Value: d,
				})
			}
		}
	}
	if collectBias {
		s.seq.add(seqDomainScope(v.key, seg), seqdetect.ClassBias, biasItems)
	}
	rep.DelaySamples = len(delays)
	if len(delays) > 0 {
		ests, err := quantile.Quantiles(delays, qs, confidence)
		if err != nil {
			return rep, err
		}
		rep.DelayEstimates = ests
	} else {
		rep.DelayEstimateErr = "no matched samples"
	}
	return rep, nil
}
