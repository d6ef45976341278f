package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/netsim"
	"vpm/internal/receipt"
)

// stream is the epoch pipeline every workload runs, assembled from
// each layer's public functions the way cmd/vpm-node and a width-1
// vpm-fleet verifier assemble it: the simulator replays one segment
// per epoch into the HOPs' epoch collectors, whose seals are signed
// and published; a drain goroutine fetches the new bundles, files
// them in the windowed store, verifies every ready epoch and evicts
// behind the retention window, concurrently with the next segment.
// Workloads differ only in the functions they plug in.
type stream struct {
	tr *tracer

	// segments is the number of simulated segments.
	segments int
	// simulate replays segment i; flush delivers the observations the
	// simulator withheld at the last horizon (nil when the last
	// segment already has an unbounded horizon); closeHOPs seals every
	// HOP's terminal epoch.
	simulate  func(i int) error
	flush     func() error
	closeHOPs func()
	// fetch pulls every HOP's new bundles, passing each to ingest.
	fetch func(ingest func(*dissem.Bundle) error) error

	win     *core.WindowedStore
	rolling *core.RollingVerifier
	nHOPs   int

	// published sums the signed bundle bytes disseminated.
	published atomic.Int64
	streamStats
	// traced holds the per-HOP collector wrappers of a traced run.
	traced map[receipt.HOPID]*tracedObserver

	// onReports, when set, sees each verified batch (the query client
	// follows the newest epoch through it).
	onReports func([]core.EpochReport)

	origin time.Time

	sealMu    sync.Mutex
	sealCount map[core.EpochID]int
	sealAt    map[core.EpochID]int64

	// Drain-goroutine state.
	ingestSeals map[core.EpochID]int
	readyAt     map[core.EpochID]int64
	finishAt    int64
	reports     []core.EpochReport
	reportAt    map[core.EpochID]int64
}

// streamStats are the counts a run leaves behind; a pass keeps a copy
// and lets the world itself go.
type streamStats struct {
	// packets is the trace's size and genDur the load generator's time
	// to make it.
	packets int
	genDur  time.Duration
	// verifyWait sums, over verified epochs, the time from the epoch
	// becoming ready to the verify call that took it.
	verifyWait time.Duration
	segsMax    int

	// Fetch-side counts (drain goroutine): requests made, requests
	// that returned at least one bundle, retried attempts, fetches that
	// failed after retry, bundles and their signed bytes.
	fetchRequests, fetchUseful, fetchRetries, fetchErrors int
	fetchBundles                                          int
	fetchBytes                                            int64

	// fig1-deep's query client: each query's latency, queries made
	// and queries failed.
	queryLatMS             []float64
	queries, queriesFailed int
}

func (s *stream) now() int64 { return int64(time.Since(s.origin)) }

// countFetch records one fetch of got bundles that needed retries
// extra attempts and ended in err.
func (s *stream) countFetch(got, retries int, err error) {
	s.fetchRequests += 1 + retries
	s.fetchRetries += retries
	s.fetchBundles += got
	if got > 0 {
		s.fetchUseful++
	}
	if err != nil {
		s.fetchErrors++
	}
}

// signatureSize is an ed25519 signature's length: the per-bundle
// overhead on top of the encoded receipts.
const signatureSize = 64

// publishTo is the epoch sink every HOP's collector seals into: it
// signs and publishes the epoch on the HOP's dissem.Server (layer
// publish) and starts the verdict clock.
func (s *stream) publishTo(servers map[receipt.HOPID]*dissem.Server) core.EpochSink {
	return func(hop receipt.HOPID, epoch core.EpochID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) {
		var sp int32 = -1
		if s.tr != nil {
			sp = s.tr.begin(lPublish, s.tr.publishParent(s.traced, hop))
		}
		servers[hop].PublishEpoch(uint64(epoch), samples, aggs)
		s.tr.end(sp)
		n := int64((&dissem.Bundle{Samples: samples, Aggs: aggs}).WireSize() + signatureSize)
		s.published.Add(n)
		s.tr.add(cBundles, 1)
		s.tr.add(cReceipts, int64(len(samples)+len(aggs)))
		s.tr.add(cPublishBytes, n)
		s.sealed(epoch)
	}
}

// observe returns the simulator's observers: the collectors as they
// are, or behind tracedObserver wrappers in a traced run.
func (s *stream) observe(obs map[receipt.HOPID]netsim.Observer) map[receipt.HOPID]netsim.Observer {
	if s.tr == nil {
		return obs
	}
	obs, s.traced = wrapObservers(s.tr, obs)
	return obs
}

// sealed records that one HOP sealed epoch; the last HOP's seal starts
// the clock on the previous epoch's verdict. Safe for concurrent use
// (the sink runs on the replay goroutines).
func (s *stream) sealed(epoch core.EpochID) {
	stamp := s.now()
	s.sealMu.Lock()
	s.sealCount[epoch]++
	if s.sealCount[epoch] == s.nHOPs {
		s.sealAt[epoch] = stamp
	}
	s.sealMu.Unlock()
}

// ingest files one authenticated bundle and seals its (HOP, epoch).
func (s *stream) ingest(b *dissem.Bundle) error {
	sp := s.tr.enter(lIngest, sIngest, s.tr.cur(sFetch))
	err := s.win.IngestBundle(b)
	if err == nil {
		err = s.win.SealHOP(b.Origin, core.EpochID(b.Epoch))
	}
	s.tr.leave(sp, sIngest)
	if err != nil {
		return fmt.Errorf("ingest %v epoch %d: %w", b.Origin, b.Epoch, err)
	}
	s.tr.add(cIngestReceipts, int64(len(b.Samples)+len(b.Aggs)))
	e := core.EpochID(b.Epoch)
	s.ingestSeals[e]++
	if s.ingestSeals[e] == s.nHOPs && e > 0 {
		s.readyAt[e-1] = s.now()
	}
	return nil
}

// drain is one pass of the verifier side: fetch and ingest, verify
// what is ready, evict.
func (s *stream) drain() error {
	if err := s.fetch(s.ingest); err != nil {
		return err
	}
	sp := s.tr.enter(lVerify, sVerify, -1)
	start := s.now()
	reps, err := s.rolling.VerifyReady()
	done := s.now()
	s.tr.leave(sp, sVerify)
	for _, rep := range reps {
		s.reportAt[rep.Epoch] = done
		ready, ok := s.readyAt[rep.Epoch]
		if !ok {
			ready = s.finishAt // released by FinishStream, not by a successor
		}
		if start > ready {
			s.verifyWait += time.Duration(start - ready)
		}
	}
	s.reports = append(s.reports, reps...)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	if s.onReports != nil && len(reps) > 0 {
		s.onReports(reps)
	}
	sp = s.tr.begin(lEvict, -1)
	s.win.Evict()
	st := s.win.Stats()
	s.tr.end(sp)
	if st.Segments > s.segsMax {
		s.segsMax = st.Segments
	}
	return nil
}

// run drives the whole stream and returns when every epoch is
// verified. It owns the drain goroutine and waits for it.
func (s *stream) run() error {
	s.sealCount = make(map[core.EpochID]int)
	s.sealAt = make(map[core.EpochID]int64)
	s.ingestSeals = make(map[core.EpochID]int)
	s.readyAt = make(map[core.EpochID]int64)
	s.reportAt = make(map[core.EpochID]int64)
	s.finishAt = 1 << 62
	s.origin = time.Now()

	// Unbuffered: segment i+1 simulates while segment i drains, and
	// segment i+2 waits until that drain is done, so a slow verifier
	// holds the loop back instead of piling epochs into the window.
	notify := make(chan struct{})
	drained := make(chan error, 1)
	go func() {
		for range notify {
			if err := s.drain(); err != nil {
				drained <- err
				for range notify {
				}
				return
			}
		}
		drained <- nil
	}()
	stop := func() error {
		close(notify)
		return <-drained
	}

	for i := 0; i < s.segments; i++ {
		if err := s.simulate(i); err != nil {
			stop()
			return fmt.Errorf("segment %d: %w", i, err)
		}
		notify <- struct{}{}
	}
	if s.flush != nil {
		if err := s.flush(); err != nil {
			stop()
			return fmt.Errorf("flush: %w", err)
		}
	}
	if err := stop(); err != nil {
		return err
	}
	sp := s.tr.enter(lCollect, sClose, -1)
	s.closeHOPs()
	s.tr.leave(sp, sClose)
	s.win.FinishStream()
	s.finishAt = s.now()
	return s.drain()
}

// lags returns each verified epoch's verdict lag: from the last HOP's
// seal of its successor (which releases it in the windowed store) to
// its report; an epoch released by FinishStream counts from there.
func (s *stream) lags() []float64 {
	out := make([]float64, 0, len(s.reports))
	for _, rep := range s.reports {
		from, ok := s.sealAt[rep.Epoch+1]
		if !ok {
			from = s.finishAt
		}
		out = append(out, float64(s.reportAt[rep.Epoch]-from)/1e6)
	}
	return out
}

// unverified counts the epochs some HOP sealed that never got a
// report.
func (s *stream) unverified() int {
	got := make(map[core.EpochID]bool, len(s.reports))
	for _, rep := range s.reports {
		got[rep.Epoch] = true
	}
	n := 0
	for e := range s.sealCount {
		if !got[e] {
			n++
		}
	}
	return n
}

// sortedHOPs returns the map's keys in ascending order.
func sortedHOPs[V any](m map[receipt.HOPID]V) []receipt.HOPID {
	out := make([]receipt.HOPID, 0, len(m))
	for h := range m {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
