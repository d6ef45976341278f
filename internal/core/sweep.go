package core

import (
	"fmt"

	"vpm/internal/packet"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
)

// This file holds the one verification sweep (§4): for every traffic
// key and every route layout of that key, the link checks, the domain
// reports, blame attribution, the optional marker-bias verdicts and
// the sequential arm's evidence. Rolling verification runs it once per
// epoch, with the epoch's receipts as claims and the ±1-epoch window
// as the view (RollingVerifier.VerifyEpoch). Batch verification runs
// it once over the whole stream, where the claims are the view
// (Deployment.Sweep).

// sweepScope is the scope one sweep judges: the evidence view, the
// claims, and whether the view reaches the true stream start and end
// (see checkScope). A whole-stream scope's claims are its view.
type sweepScope struct {
	epoch                      EpochID
	view, claims               *ReceiptStore
	headComplete, tailComplete bool
}

// sweep verifies every (key, route layout) work item of the scope on a
// VerifierConfig.Workers pool, in key order and then route order. The
// report is identical at any pool size: each item writes its own slot,
// and the sequential arm's evidence is captured per item and fed to
// seq (nil = arm off) serially, in item order, after the pool drains.
func (sc sweepScope) sweep(keys []packet.PathKey, layoutsFor func(packet.PathKey) []Layout, cfg VerifierConfig, qs []float64, confidence float64, seq *seqdetect.Engine) (EpochReport, error) {
	rep := EpochReport{Epoch: sc.epoch}
	// One work item per (key, route layout): a default-route path has
	// exactly one layout per key; a mesh key verifies once per ECMP
	// route. Links shared by a key's routes (the ECMP access legs)
	// carry one verdict — on the first route that reaches them — so
	// violation and blame counts tally distinct link verifications,
	// not route multiplicity.
	type keyWork struct {
		key    packet.PathKey
		layout Layout
		route  int
		// skip holds the layout's link ordinals already verified on an
		// earlier route of the same key.
		skip map[int]bool
	}
	var work []keyWork
	for _, key := range keys {
		seen := make(map[[2]receipt.HOPID]bool)
		for ri, lay := range layoutsFor(key) {
			var skip map[int]bool
			for li, l := range lay.Links() {
				pair := [2]receipt.HOPID{l.Up, l.Down}
				if seen[pair] {
					if skip == nil {
						skip = make(map[int]bool)
					}
					skip[li] = true
					continue
				}
				seen[pair] = true
			}
			work = append(work, keyWork{key: key, layout: lay, route: ri, skip: skip})
		}
	}
	if len(work) > 0 {
		rep.Keys = make([]EpochKeyReport, len(work))
	}
	errs := make([]error, len(work))
	var seqCols []*seqCollector
	if seq != nil {
		seqCols = make([]*seqCollector, len(work))
		for i := range seqCols {
			seqCols[i] = &seqCollector{}
		}
	}
	runParallel(resolveWorkers(cfg.Workers), len(work), func(i int) {
		key, layout := work[i].key, work[i].layout
		v := NewVerifierOn(layout, sc.view, key)
		v.SetConfig(cfg)
		scope := &checkScope{
			view:         v,
			claims:       Verifier{store: sc.claims, key: key},
			headComplete: sc.headComplete,
			tailComplete: sc.tailComplete,
		}
		if seqCols != nil {
			scope.seq = seqCols[i]
		}
		kr := EpochKeyReport{Key: key, Route: work[i].route}
		for li, l := range layout.Links() {
			if work[i].skip[li] {
				continue
			}
			lv := scope.linkCheck(l.Up, l.Down)
			lv.LinkID = li
			kr.Links = append(kr.Links, lv)
		}
		for _, seg := range layout.DomainSegments() {
			dr, err := scope.domainReport(seg, qs, confidence)
			if err != nil {
				errs[i] = fmt.Errorf("core: epoch %d key %v: %w", sc.epoch, key, err)
				return
			}
			kr.Domains = append(kr.Domains, dr)
		}
		kr.Blames = AttributeBlame(layout, sc.epoch, kr.Links)
		if cfg.BiasChecks {
			for _, seg := range layout.DomainSegments() {
				bias, err := v.CheckMarkerBias(seg.Up, seg.Down)
				if err != nil {
					continue // too few samples to judge
				}
				kr.Bias = append(kr.Bias, DomainBiasVerdict{Domain: seg.Name, Report: bias})
				if bias.Suspicious {
					kr.Blames = append(kr.Blames, BlameMarkerBias(sc.epoch, seg, bias))
				}
			}
		}
		rep.Keys[i] = kr
	})
	for _, err := range errs {
		if err != nil {
			return rep, err
		}
	}
	rep.Seq = feedSequential(seq, sc.epoch, seqCols)
	return rep, nil
}

// Sweep verifies keys over the whole stream held in store: the one
// verification sweep with the store as both claims and view, reported
// as epoch 0. Keys verify in the order given, each once per route of
// Topo.RoutesForKey — so a default-route path and a mesh's ECMP routes
// resolve the same way — and a key without a route yields no entry.
// cfg.Workers sizes the pool over (key, route) items; qs and
// confidence parameterize the delay estimates as in DomainReports.
// With cfg.Sequential set, a fresh SPRT engine sees the sweep's
// evidence as one epoch.
func (d *Deployment) Sweep(store *ReceiptStore, keys []packet.PathKey, cfg VerifierConfig, qs []float64, confidence float64) (EpochReport, error) {
	var seq *seqdetect.Engine
	if cfg.Sequential != nil {
		seq = seqdetect.NewEngine(*cfg.Sequential)
	}
	whole := sweepScope{view: store, claims: store, headComplete: true, tailComplete: true}
	return whole.sweep(keys, d.routeLayoutsFor, cfg, qs, confidence, seq)
}

// routeLayoutsFor returns the layouts of every route carrying key, in
// route-table order (the default routes for a key with none of its
// own).
func (d *Deployment) routeLayoutsFor(key packet.PathKey) []Layout {
	rs := d.Topo.RoutesForKey(key)
	out := make([]Layout, len(rs))
	for i, ri := range rs {
		out[i] = d.RouteLayout(ri)
	}
	return out
}
