package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/seqdetect"
	"vpm/internal/trace"
)

// This file runs the pipeline the way a deployment would: continuously,
// over a stream of rotating epochs, with receipts travelling through
// signed per-epoch dissemination bundles and verification rolling one
// interval behind ingest. RunContinuous is the engine (cmd/vpm-node is
// a thin wrapper around it); Epochs is the benchmark that measures
// sustained epochs/s and steady-state memory against the one-shot
// batch baseline, emitting the BENCH_*.json trajectory rows.

// ContinuousResult is the outcome of one continuous run.
type ContinuousResult struct {
	// EpochsRun counts the simulation segments driven (one per
	// configured epoch, fewer if stopped early).
	EpochsRun int
	// EpochsSealed counts the epochs every HOP sealed — EpochsRun plus
	// the terminal partial interval that propagation delay spills into.
	EpochsSealed int
	// Packets is the total traffic replayed.
	Packets int
	// SampleReceipts and AggReceipts count the receipts sealed across
	// all epochs and HOPs.
	SampleReceipts, AggReceipts int
	// Reports are the per-epoch verification deltas, in epoch order.
	Reports []core.EpochReport
	// Violations and MatchedSamples aggregate the reports.
	Violations     int
	MatchedSamples int64
	// EpochWall holds each epoch's ingest wall time (simulation +
	// rotation + publication; verification overlaps the next epoch).
	EpochWall []time.Duration
	// Window is the windowed store's final occupancy — Segments stays
	// bounded by retention no matter how many epochs ran.
	Window core.WindowStats
	// HeapAllocBytes is the live heap after a forced GC at the end of
	// the run, with the window (but not the trace) still reachable —
	// the steady-state memory of the pipeline.
	HeapAllocBytes uint64
	// Truth is the merged per-domain ground truth across all segments
	// (counts summed, true delays concatenated).
	Truth []netsim.DomainTruth
	// DissemFindings are the dissemination-layer blame findings the
	// drain loop classified instead of aborting on: signature failures,
	// stale-epoch replays, pruned-cursor gaps, and — after shutdown —
	// withheld bundles that left epochs permanently unverifiable.
	DissemFindings []core.Blame
	// Unverified lists the epochs still held unverified at shutdown
	// (empty on an honest run).
	Unverified []core.EpochID
	// RecoveredEpochs counts the epochs whose verification was skipped
	// because the durable backend already held their verdict reports
	// (only non-zero when ContinuousOptions.Backend resumes a prior
	// run); Reports covers the other EpochsSealed − RecoveredEpochs.
	RecoveredEpochs int
}

// stopOrNil returns stop, or a never-ready channel when stop is nil,
// so it can sit in a select arm unconditionally.
func stopOrNil(stop <-chan struct{}) <-chan struct{} {
	if stop != nil {
		return stop
	}
	return nil // nil channel: blocks forever
}

// hopSigner derives a HOP's deterministic signing key for an
// experiment seed — the single derivation scheme every pipeline mode
// and tamper builder shares, so batch and continuous runs of the same
// scenario always agree on keys.
func hopSigner(seed uint64, hop receipt.HOPID) *dissem.Signer {
	var keySeed [32]byte
	keySeed[0], keySeed[1] = byte(seed), byte(hop)
	return dissem.NewSigner(keySeed)
}

// dissemWorld is the signed-bundle substrate of one experiment run:
// one signing server per HOP on an in-memory bus, every public key
// registered.
type dissemWorld struct {
	bus     *dissem.Bus
	reg     dissem.Registry
	servers map[receipt.HOPID]*dissem.Server
	signers map[receipt.HOPID]*dissem.Signer
}

// newDissemWorld builds the substrate for the given HOPs with keys
// from hopSigner(seed, ·).
func newDissemWorld(seed uint64, hops []receipt.HOPID) *dissemWorld {
	w := &dissemWorld{
		bus:     dissem.NewBus(),
		reg:     make(dissem.Registry, len(hops)),
		servers: make(map[receipt.HOPID]*dissem.Server, len(hops)),
		signers: make(map[receipt.HOPID]*dissem.Signer, len(hops)),
	}
	for _, id := range hops {
		signer := hopSigner(seed, id)
		srv := dissem.NewServer(id, signer)
		w.bus.Attach(srv)
		w.servers[id] = srv
		w.signers[id] = signer
		w.reg[id] = signer.Public()
	}
	return w
}

// ContinuousOptions parameterizes RunContinuousOpts beyond the basic
// epoch configuration — the hooks the Byzantine attack matrix uses to
// corrupt each layer of the pipeline, plus operational knobs.
type ContinuousOptions struct {
	// OnEpoch receives each epoch's report as verification completes
	// (from the verification goroutine).
	OnEpoch func(core.EpochReport, core.WindowStats)
	// Stop aborts cleanly at the next epoch boundary when closed.
	Stop <-chan struct{}
	// Ctx, when non-nil, hard-aborts the run when cancelled: the epoch
	// loop stops simulating and the collection/verification loop
	// returns the context's error. Use Stop for a clean epoch-boundary
	// shutdown; use Ctx for deadlines and forced aborts — it is
	// consulted between per-HOP collection drains, so a deadline
	// bounds the collection loop even when a fetch layer hangs.
	Ctx context.Context
	// MutatePath perturbs the Fig1 path (loss, congestion, skew)
	// before deployment.
	MutatePath func(*netsim.Topology)
	// Deploy overrides the deployment config (nil: defaults). Shards
	// still come from the EpochConfig.
	Deploy *core.DeployConfig
	// Wear dresses HOPs in data-plane adversaries: each HOP's
	// observation stream passes through its adversary before the
	// collector sees it.
	Wear map[receipt.HOPID]netsim.Adversary
	// WrapSink interposes control-plane adversaries between the epoch
	// driver and publication (see core.NewAdversarySink); it receives
	// the honest publish sink and returns the sink the driver uses.
	WrapSink func(core.EpochSink) core.EpochSink
	// Tamper installs dissemination-layer attacks on the named HOPs'
	// bundle servers.
	Tamper map[receipt.HOPID]dissem.BundleTamper
	// BiasChecks enables the per-epoch marker-bias check in rolling
	// verification.
	BiasChecks bool
	// Sequential, when non-nil, arms the rolling verifier's concurrent
	// SPRT arm (see core.VerifierConfig.Sequential): early sequential
	// verdicts ride on each EpochReport's Seq field while the batch
	// verdicts stay byte-identical to an unarmed run.
	Sequential *seqdetect.Config
	// Backend attaches a durable store backend beneath the windowed
	// store (see core.StoreBackend): sealed epochs and verdict reports
	// persist to it, and epochs already durable from a previous run are
	// neither re-persisted nor re-verified — the recovery path
	// cmd/vpm-node uses after a crash.
	Backend core.StoreBackend
	// Pace, when positive, is the minimum wall-clock duration of each
	// epoch: the loop sleeps out the remainder of the interval after
	// simulating it. Simulated time normally outruns real time by
	// orders of magnitude; pacing restores real-time epoch cadence so
	// external events (signals, kill -9) land mid-stream.
	Pace time.Duration
}

// RunContinuous drives the Fig1 workload over `epochs` rotating
// intervals: each epoch's packets are generated and simulated as one
// segment (network state persists across segments via netsim.Runner),
// every HOP's sealed epoch is published as an ed25519-signed
// epoch-tagged bundle, a rolling verifier drains the bundles into a
// windowed store and verifies each interval as soon as every HOP has
// sealed it — concurrently with ingest of the following epoch — and
// verified epochs older than the retention window are evicted.
//
// onEpoch, if non-nil, receives each epoch's report as verification
// completes (from the verification goroutine). stop, if non-nil,
// aborts cleanly at the next epoch boundary when closed.
func RunContinuous(cfg Config, ec core.EpochConfig, epochs int, onEpoch func(core.EpochReport, core.WindowStats), stop <-chan struct{}) (*ContinuousResult, error) {
	return RunContinuousOpts(cfg, ec, epochs, ContinuousOptions{OnEpoch: onEpoch, Stop: stop})
}

// RunContinuousOpts is RunContinuous with the full option set: path
// perturbation, per-layer adversaries (data plane, control plane,
// dissemination), bias checks, and context cancellation. Classified
// dissemination misbehavior (bad signatures, stale replays, cursor
// gaps) is recorded as blame findings and skipped rather than aborting
// the pipeline; only unclassifiable errors fail the run.
func RunContinuousOpts(cfg Config, ec core.EpochConfig, epochs int, opts ContinuousOptions) (*ContinuousResult, error) {
	cfg = cfg.Normalize()
	if err := ec.Validate(); err != nil {
		return nil, err
	}
	if epochs < 1 {
		return nil, fmt.Errorf("experiments: need at least one epoch, got %d", epochs)
	}
	onEpoch, stop := opts.OnEpoch, opts.Stop

	tc := trace.Config{
		Seed:       cfg.Seed,
		DurationNS: int64(epochs) * ec.IntervalNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	path := netsim.Fig1Path(cfg.Seed + 1000)
	if opts.MutatePath != nil {
		opts.MutatePath(path)
	}
	dc := core.DefaultDeployConfig()
	if opts.Deploy != nil {
		dc = *opts.Deploy
	}
	dc.Shards = ec.Shards
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}

	// Dissemination: one signer + bundle server per HOP, all on an
	// in-memory bus, with every public key registered.
	hops := make([]receipt.HOPID, 0, len(dep.Processors))
	for id := range dep.Processors {
		hops = append(hops, id)
	}
	sort.Slice(hops, func(i, j int) bool { return hops[i] < hops[j] })
	dw := newDissemWorld(cfg.Seed, hops)
	bus, reg, servers := dw.bus, dw.reg, dw.servers
	for id, t := range opts.Tamper {
		if srv, ok := servers[id]; ok {
			srv.SetTamper(t)
		}
	}

	win, err := core.NewWindowedStore(hops, ec.Retention)
	if err != nil {
		return nil, err
	}
	if opts.Backend != nil {
		win.AttachBackend(opts.Backend)
	}

	res := &ContinuousResult{}
	// The sink runs on the replay goroutines (one per HOP): count the
	// sealed receipts, then publish the epoch as a signed bundle.
	// Control-plane adversaries wrap this honest sink (WrapSink), so
	// the counters and the published bundles both reflect what the
	// lying control planes actually emitted.
	var nSamples, nAggs atomic.Int64
	sink := core.EpochSink(func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		nSamples.Add(int64(len(samples)))
		nAggs.Add(int64(len(aggs)))
		servers[hop].PublishEpoch(uint64(epoch), samples, aggs)
	})
	if opts.WrapSink != nil {
		sink = opts.WrapSink(sink)
	}
	driver, err := core.NewEpochDriver(dep, ec.IntervalNS, sink)
	if err != nil {
		return nil, err
	}

	layout := dep.Layout()
	vc := dep.VerifierConfig()
	vc.Workers = ec.Workers
	vc.BiasChecks = opts.BiasChecks
	vc.Sequential = opts.Sequential
	rolling := core.NewRollingVerifier(layout, vc, win, quantile.DefaultQuantiles, cfg.Confidence)

	// Verification pipeline: woken after each segment, it drains the
	// bus into the windowed store (ingest + seal per bundle), verifies
	// every interval that every HOP has sealed, and evicts what has
	// aged out — all while the main loop simulates the next epoch.
	// Classifiable dissemination misbehavior becomes a blame finding
	// and the cursor skips past it; only unclassifiable errors abort.
	notify := make(chan struct{}, 1)
	verifyDone := make(chan error, 1)
	cursors := make(map[receipt.HOPID]uint64, len(hops))
	ctxErr := func() error {
		if opts.Ctx != nil {
			return opts.Ctx.Err()
		}
		return nil
	}
	drainAndVerify := func() error {
		for _, id := range hops {
			if err := ctxErr(); err != nil {
				return err
			}
			consume := func(b *dissem.Bundle) error {
				err := win.IngestBundle(b)
				var stale *core.StaleSealError
				if errors.As(err, &stale) {
					res.DissemFindings = append(res.DissemFindings,
						core.BlameHOP(layout, stale.Epoch, core.EvEpochReplay, b.Origin, 1, err.Error()))
					return nil // consumed: replay evidence recorded
				}
				if errors.Is(err, core.ErrEvictedEpoch) {
					res.DissemFindings = append(res.DissemFindings,
						core.BlameHOP(layout, core.EpochID(b.Epoch), core.EvEpochReplay, b.Origin, 1, err.Error()))
					return nil
				}
				if err != nil {
					return err
				}
				return win.SealHOP(b.Origin, core.EpochID(b.Epoch))
			}
			cursor := cursors[id]
			for {
				next, err := bus.CollectSince(reg, id, cursor, consume)
				cursor = next
				if err == nil {
					break
				}
				var be *dissem.BundleError
				if errors.As(err, &be) {
					res.DissemFindings = append(res.DissemFindings,
						core.BlameHOP(layout, core.EpochID(be.Epoch), core.EvSignature, id, 1, err.Error()))
					cursor = be.Seq + 1 // skip the poisoned bundle
					continue
				}
				var gap *dissem.GapError
				if errors.As(err, &gap) {
					res.DissemFindings = append(res.DissemFindings,
						core.BlameHOP(layout, 0, core.EvBundleGap, id, int(gap.Base-gap.Since), err.Error()))
					cursor = gap.Base // resume past the pruned range
					continue
				}
				return err
			}
			cursors[id] = cursor
			if cursor > 0 {
				// Consumed bundles live on in the windowed store; free
				// the publisher's copies so server memory stays bounded
				// over an endless epoch stream, like the window's.
				servers[id].DropThrough(cursor - 1)
			}
		}
		reps, err := rolling.VerifyReady()
		for _, rep := range reps {
			res.Reports = append(res.Reports, rep)
			res.Violations += rep.Violations()
			res.MatchedSamples += rep.MatchedSamples()
			if onEpoch != nil {
				onEpoch(rep, win.Stats())
			}
		}
		if err != nil {
			return err
		}
		win.Evict()
		return nil
	}
	go func() {
		for range notify {
			if err := drainAndVerify(); err != nil {
				verifyDone <- err
				// Drain remaining wakeups so the main loop never blocks.
				for range notify {
				}
				return
			}
		}
		verifyDone <- nil
	}()

	runner, err := netsim.NewRunner(path)
	if err != nil {
		return nil, err
	}
	observers := driver.Observers()
	for hop, adv := range opts.Wear {
		if obs, ok := observers[hop]; ok && adv != nil {
			observers[hop] = netsim.Wear(hop, adv, obs)
		}
	}
	mergeTruth := func(seg *netsim.Result) {
		if res.Truth == nil {
			res.Truth = make([]netsim.DomainTruth, len(seg.Domains))
			for i, d := range seg.Domains {
				res.Truth[i] = netsim.DomainTruth{Name: d.Name}
			}
		}
		for i, d := range seg.Domains {
			res.Truth[i].In += d.In
			res.Truth[i].Out += d.Out
			res.Truth[i].DroppedInside += d.DroppedInside
			res.Truth[i].TrueDelaysNS = append(res.Truth[i].TrueDelaysNS, d.TrueDelaysNS...)
		}
	}
	stopped := false
	for e := 0; e < epochs && !stopped; e++ {
		if stop != nil {
			select {
			case <-stop:
				stopped = true
				continue
			default:
			}
		}
		if ctxErr() != nil {
			stopped = true
			continue
		}
		start := time.Now()
		horizon := int64(e+1) * ec.IntervalNS
		chunk := gen.NextChunk(horizon)
		segTruth, err := runner.RunSegment(chunk, observers, horizon)
		if err != nil {
			close(notify)
			<-verifyDone
			return nil, err
		}
		mergeTruth(segTruth)
		res.Packets += len(chunk)
		res.EpochsRun++
		res.EpochWall = append(res.EpochWall, time.Since(start))
		select {
		case notify <- struct{}{}:
		default: // verifier already has a pending wakeup
		}
		if remain := opts.Pace - time.Since(start); opts.Pace > 0 && remain > 0 {
			// Real-time pacing: sleep out the interval, still answering
			// stop and cancellation promptly.
			timer := time.NewTimer(remain)
			var done <-chan struct{}
			if opts.Ctx != nil {
				done = opts.Ctx.Done()
			}
			select {
			case <-timer.C:
			case <-stopOrNil(stop):
				stopped = true
			case <-done:
				stopped = true
			}
			timer.Stop()
		}
	}
	// Stop the background verifier before sealing the terminal
	// epochs: a sweep racing the seals could judge a tail epoch before
	// FinishStream, against a different evidence rule than the final
	// sweep, and the reports would depend on goroutine timing.
	close(notify)
	if err := <-verifyDone; err != nil {
		return nil, err
	}
	// Deliver the replay observations withheld at the final boundary,
	// then seal every HOP's terminal epoch.
	if _, err := runner.Run(nil, observers); err != nil {
		return nil, err
	}
	terminal := driver.Close()
	res.EpochsSealed = int(terminal) + 1
	// Clean shutdown: no further epochs will seal, so the terminal
	// epoch may be verified without waiting for a successor.
	win.FinishStream()
	if err := drainAndVerify(); err != nil {
		return nil, err
	}
	res.SampleReceipts = int(nSamples.Load())
	res.AggReceipts = int(nAggs.Load())

	// Anything still unverified after the final sweep is permanently
	// unjudgeable: some HOP never published the epoch's bundle. The
	// missing seals name the withholder — the narrowest implicated set
	// for starvation, since every other HOP's bundle arrived.
	res.Unverified = win.UnverifiedEpochs()
	for _, e := range res.Unverified {
		for _, h := range win.MissingSeals(e) {
			res.DissemFindings = append(res.DissemFindings,
				core.BlameHOP(layout, e, core.EvWithheldBundle, h, 1,
					fmt.Sprintf("epoch %d never sealed: no bundle from %v", e, h)))
		}
	}

	res.RecoveredEpochs = int(win.Recovered())
	res.Window = win.Stats()
	// Steady-state heap: drop the trace machinery, keep the window.
	gen = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapAllocBytes = ms.HeapAlloc
	runtime.KeepAlive(win)
	return res, nil
}

// EpochsRow is one line of the continuous-operation experiment — the
// schema cmd/vpm-bench -run epochs -json emits for BENCH_*.json
// tracking.
type EpochsRow struct {
	Mode           string  `json:"mode"` // "batch" (one-shot) or "continuous"
	Epochs         int     `json:"epochs"`
	IntervalMS     float64 `json:"interval_ms"`
	Retention      int     `json:"retention"`
	Packets        int     `json:"packets"`
	SampleReceipts int     `json:"sample_receipts"`
	AggReceipts    int     `json:"agg_receipts"`
	MatchedSamples int64   `json:"matched_samples"`
	Violations     int     `json:"violations"`
	WallMS         float64 `json:"wall_ms"`
	EpochsPerSec   float64 `json:"epochs_per_sec"`
	MeanEpochMS    float64 `json:"mean_epoch_ms"`
	MaxEpochMS     float64 `json:"max_epoch_ms"`
	HeapMB         float64 `json:"heap_mb"`
	SegmentsHeld   int     `json:"segments_held"`
	SegmentsGCed   uint64  `json:"segments_gced"`
}

// Epochs measures continuous multi-interval operation on the Fig1
// workload: the one-shot batch baseline (whole trace, single flush,
// single verification sweep) against the rotating pipeline at each
// retention in retentions (default 2). cfg.DurationNS is interpreted
// as the epoch interval; epochs sets how many intervals to run.
func Epochs(cfg Config, epochs int, retentions []int) ([]EpochsRow, error) {
	cfg = cfg.Normalize()
	if epochs < 1 {
		epochs = 8
	}
	if len(retentions) == 0 {
		retentions = []int{2}
	}
	intervalNS := cfg.DurationNS

	var rows []EpochsRow

	// Batch baseline: the same total trace, one run, one verification
	// sweep at the end — what the repo did before continuous mode.
	batch, err := epochsBatchRow(cfg, epochs, intervalNS)
	if err != nil {
		return nil, err
	}
	rows = append(rows, batch)

	for _, ret := range retentions {
		ec := core.EpochConfig{IntervalNS: intervalNS, Retention: ret, Workers: 1, Shards: 1}
		start := time.Now()
		res, err := RunContinuous(cfg, ec, epochs, nil, nil)
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		row := EpochsRow{
			Mode:           "continuous",
			Epochs:         res.EpochsRun,
			IntervalMS:     float64(intervalNS) / 1e6,
			Retention:      ret,
			Packets:        res.Packets,
			SampleReceipts: res.SampleReceipts,
			AggReceipts:    res.AggReceipts,
			MatchedSamples: res.MatchedSamples,
			Violations:     res.Violations,
			WallMS:         float64(wall.Nanoseconds()) / 1e6,
			EpochsPerSec:   float64(res.EpochsRun) / wall.Seconds(),
			HeapMB:         float64(res.HeapAllocBytes) / (1 << 20),
			SegmentsHeld:   res.Window.Segments,
			SegmentsGCed:   res.Window.Evicted,
		}
		var sum, max time.Duration
		for _, d := range res.EpochWall {
			sum += d
			if d > max {
				max = d
			}
		}
		if n := len(res.EpochWall); n > 0 {
			row.MeanEpochMS = float64(sum.Nanoseconds()) / float64(n) / 1e6
			row.MaxEpochMS = float64(max.Nanoseconds()) / 1e6
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// epochsBatchRow runs the one-shot baseline over the same total
// duration and measures its wall time and post-GC heap with the full
// store live.
func epochsBatchRow(cfg Config, epochs int, intervalNS int64) (EpochsRow, error) {
	row := EpochsRow{Mode: "batch", Epochs: epochs, IntervalMS: float64(intervalNS) / 1e6}
	tc := trace.Config{
		Seed:       cfg.Seed,
		DurationNS: int64(epochs) * intervalNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	start := time.Now()
	pkts, err := trace.Generate(tc)
	if err != nil {
		return row, err
	}
	path := netsim.Fig1Path(cfg.Seed + 1000)
	dep, err := core.NewDeployment(path, tc.Table(), core.DefaultDeployConfig())
	if err != nil {
		return row, err
	}
	runner, err := netsim.NewRunner(path)
	if err != nil {
		return row, err
	}
	if _, err := runner.Run(pkts, dep.Observers()); err != nil {
		return row, err
	}
	dep.Finalize()
	store := dep.NewStore()
	for _, proc := range dep.Processors {
		row.SampleReceipts += len(proc.Samples)
		row.AggReceipts += len(proc.Aggs)
	}
	rep, err := dep.Sweep(store, store.Keys(), dep.VerifierConfig(), quantile.DefaultQuantiles, cfg.Confidence)
	if err != nil {
		return row, err
	}
	row.MatchedSamples = rep.MatchedSamples()
	row.Violations = rep.Violations()
	wall := time.Since(start)
	row.Packets = len(pkts)
	row.WallMS = float64(wall.Nanoseconds()) / 1e6
	row.EpochsPerSec = float64(epochs) / wall.Seconds()
	// Batch heap: everything — trace, receipts, store — is live until
	// the sweep ends.
	pkts = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.HeapMB = float64(ms.HeapAlloc) / (1 << 20)
	row.SegmentsHeld = 1
	runtime.KeepAlive(store)
	runtime.KeepAlive(dep)
	return row, nil
}

// EpochsRender renders the rows.
func EpochsRender(rows []EpochsRow, markdown bool) string {
	header := []string{"Mode", "Epochs", "Interval", "Ret", "Packets", "Receipts", "Matched", "Viol", "ms", "epochs/s", "heap MB", "segs"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Mode,
			fmt.Sprintf("%d", r.Epochs),
			fmt.Sprintf("%.0fms", r.IntervalMS),
			fmt.Sprintf("%d", r.Retention),
			fmt.Sprintf("%d", r.Packets),
			fmt.Sprintf("%d", r.SampleReceipts+r.AggReceipts),
			fmt.Sprintf("%d", r.MatchedSamples),
			fmt.Sprintf("%d", r.Violations),
			fmt.Sprintf("%.1f", r.WallMS),
			fmt.Sprintf("%.1f", r.EpochsPerSec),
			fmt.Sprintf("%.1f", r.HeapMB),
			fmt.Sprintf("%d", r.SegmentsHeld),
		})
	}
	if markdown {
		return Markdown(header, body)
	}
	return Table(header, body)
}
