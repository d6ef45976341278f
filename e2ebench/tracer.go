package main

import (
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vpm/internal/core"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// The tracer records one span per call the benchmark makes into a
// layer's public functions, plus counts at the same boundaries. Spans
// live in memory and are folded into per-layer busy/self times when
// the run ends. A nil *tracer is the untraced mode: every method is a
// no-op and no wrapper is installed, so the program under test runs
// exactly as it does without the benchmark.

// layer names one module of the pipeline.
type layer uint8

const (
	lNetsim layer = iota
	lCollect
	lPublish
	lServe
	lFetch
	lIngest
	lVerify
	lEvict
	lPersist
	lQuery
	nLayers
)

var layerNames = [nLayers]string{"netsim", "collect", "publish", "serve", "fetch", "ingest", "verify", "evict", "persist", "query"}

// span is one call into a layer. parent is the index of the span whose
// call caused it, or -1.
type span struct {
	layer      layer
	parent     int32
	start, end int64 // ns since the tracer's origin
}

// slot names an open span that later calls nest under. Each is
// written by the one goroutine that drives the layer and read by the
// goroutines its calls fan out to (replay, HTTP server), hence atomics.
type slot uint8

const (
	sNetsim slot = iota
	sFetch
	sIngest
	sVerify
	sClose // the epoch driver's terminal Close, which seals outside replay
	nSlots
)

// counter names a count taken at a layer boundary.
type counter uint8

const (
	cObservations counter = iota
	cBatches
	cBundles
	cReceipts
	cPublishBytes
	cServeRequests
	cFetchBytes
	cIngestReceipts
	cAppends
	cSeals
	cReports
	cPersistBytes
	cQueryRequests
	cQueryErrors
	nCounters
)

// tracer collects the traced run's spans and counters.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	open   [nSlots]atomic.Int32
	counts [nCounters]atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	for i := range t.open {
		t.open[i].Store(-1)
	}
	return t
}

// begin opens a span; the returned index closes it.
func (t *tracer) begin(l layer, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{layer: l, parent: parent, start: now, end: -1})
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// enter begins a span and publishes it in slot s for nested calls.
func (t *tracer) enter(l layer, s slot, parent int32) int32 {
	if t == nil {
		return -1
	}
	i := t.begin(l, parent)
	t.open[s].Store(i)
	return i
}

// leave ends a span opened with enter and clears its slot.
func (t *tracer) leave(i int32, s slot) {
	if t == nil {
		return
	}
	t.open[s].Store(-1)
	t.end(i)
}

// cur returns the span open in slot s, or -1.
func (t *tracer) cur(s slot) int32 {
	if t == nil {
		return -1
	}
	return t.open[s].Load()
}

// add bumps counter c.
func (t *tracer) add(c counter, n int64) {
	if t != nil {
		t.counts[c].Add(n)
	}
}

// count reads counter c.
func (t *tracer) count(c counter) int64 {
	if t == nil {
		return 0
	}
	return t.counts[c].Load()
}

// layerTimes is the fold of every span of one layer.
type layerTimes struct {
	busyNS, selfNS int64
	calls          int
}

// fold computes each layer's busy time (summed span durations) and
// self time (each span's duration minus the union of its child spans'
// intervals, so children running on several goroutines at once are
// not subtracted twice).
func (t *tracer) fold() [nLayers]layerTimes {
	var out [nLayers]layerTimes
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	type iv struct{ a, b int64 }
	var ivs []iv
	for i, s := range t.spans {
		if s.end < 0 {
			continue // never closed: the run failed mid-call
		}
		dur := s.end - s.start
		ivs = ivs[:0]
		for _, c := range children[i] {
			cs := t.spans[c]
			a, b := max(cs.start, s.start), min(cs.end, s.end)
			if cs.end >= 0 && b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, hi int64
		hi = s.start
		for _, v := range ivs {
			if v.a > hi {
				hi = v.a
			}
			if v.b > hi {
				covered += v.b - hi
				hi = v.b
			}
		}
		lt := &out[s.layer]
		lt.busyNS += dur
		lt.selfNS += dur - covered
		lt.calls++
	}
	return out
}

// tracedObserver times one HOP's collector (core.EpochCollector)
// behind the simulator's observer interface. It is a pointer type, so
// netsim's replay still groups HOPs by observer identity and keeps its
// per-HOP parallel replay, and it implements netsim.BatchObserver, so
// Deliver keeps the batch path.
type tracedObserver struct {
	tr    *tracer
	inner netsim.Observer
	open  atomic.Int32 // this HOP's open collect span, for publish
}

var _ netsim.BatchObserver = (*tracedObserver)(nil)

func newTracedObserver(tr *tracer, inner netsim.Observer) *tracedObserver {
	o := &tracedObserver{tr: tr, inner: inner}
	o.open.Store(-1)
	return o
}

// Observe implements netsim.Observer.
func (o *tracedObserver) Observe(pkt *packet.Packet, digest uint64, tNS int64) {
	i := o.tr.begin(lCollect, o.tr.cur(sNetsim))
	o.open.Store(i)
	o.inner.Observe(pkt, digest, tNS)
	o.open.Store(-1)
	o.tr.end(i)
	o.tr.add(cObservations, 1)
	o.tr.add(cBatches, 1)
}

// ObserveBatch implements netsim.BatchObserver.
func (o *tracedObserver) ObserveBatch(batch []netsim.Observation) {
	i := o.tr.begin(lCollect, o.tr.cur(sNetsim))
	o.open.Store(i)
	netsim.Deliver(o.inner, batch)
	o.open.Store(-1)
	o.tr.end(i)
	o.tr.add(cObservations, int64(len(batch)))
	o.tr.add(cBatches, 1)
}

// wrapObservers interposes a tracedObserver on every HOP and returns
// the wrapped map plus the per-HOP wrappers (the publish sink nests
// its spans under the HOP's open collect span).
func wrapObservers(tr *tracer, obs map[receipt.HOPID]netsim.Observer) (map[receipt.HOPID]netsim.Observer, map[receipt.HOPID]*tracedObserver) {
	out := make(map[receipt.HOPID]netsim.Observer, len(obs))
	byHOP := make(map[receipt.HOPID]*tracedObserver, len(obs))
	for h, o := range obs {
		t := newTracedObserver(tr, o)
		out[h] = t
		byHOP[h] = t
	}
	return out, byHOP
}

// publishParent is the span a HOP's seal nests under: its open collect
// span during replay, else the epoch driver's Close span.
func (t *tracer) publishParent(obs map[receipt.HOPID]*tracedObserver, hop receipt.HOPID) int32 {
	if o, ok := obs[hop]; ok {
		if i := o.open.Load(); i >= 0 {
			return i
		}
	}
	return t.cur(sClose)
}

// tracedBackend times the durable store beneath the window.
type tracedBackend struct {
	tr    *tracer
	inner core.StoreBackend
}

var _ core.StoreBackend = (*tracedBackend)(nil)

// persistParent nests store calls under the ingest (seal) or verify
// (report) call that made them.
func (b *tracedBackend) persistParent() int32 {
	if i := b.tr.cur(sIngest); i >= 0 {
		return i
	}
	return b.tr.cur(sVerify)
}

// AppendEpochHOP implements core.StoreBackend.
func (b *tracedBackend) AppendEpochHOP(epoch core.EpochID, hop receipt.HOPID, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) error {
	i := b.tr.begin(lPersist, b.persistParent())
	err := b.inner.AppendEpochHOP(epoch, hop, samples, aggs)
	b.tr.end(i)
	b.tr.add(cAppends, 1)
	var n int64
	for _, s := range samples {
		n += int64(s.WireSize())
	}
	for _, a := range aggs {
		n += int64(a.WireSize())
	}
	b.tr.add(cPersistBytes, n)
	return err
}

// SealEpoch implements core.StoreBackend.
func (b *tracedBackend) SealEpoch(epoch core.EpochID) error {
	i := b.tr.begin(lPersist, b.persistParent())
	err := b.inner.SealEpoch(epoch)
	b.tr.end(i)
	b.tr.add(cSeals, 1)
	return err
}

// LastSealed implements core.StoreBackend.
func (b *tracedBackend) LastSealed() (core.EpochID, bool) { return b.inner.LastSealed() }

// HasReport implements core.StoreBackend.
func (b *tracedBackend) HasReport(epoch core.EpochID) bool { return b.inner.HasReport(epoch) }

// PutReport implements core.StoreBackend.
func (b *tracedBackend) PutReport(epoch core.EpochID, encoded []byte) error {
	i := b.tr.begin(lPersist, b.persistParent())
	err := b.inner.PutReport(epoch, encoded)
	b.tr.end(i)
	b.tr.add(cReports, 1)
	b.tr.add(cPersistBytes, int64(len(encoded)))
	return err
}

// tracedHandler times an HTTP handler on the server side: the dissem
// bundle feeds (layer serve, nested under the fetch that asked) or the
// query API (layer query).
type tracedHandler struct {
	tr    *tracer
	layer layer
	inner http.Handler
}

// ServeHTTP implements http.Handler.
func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent := int32(-1)
	if h.layer == lServe {
		parent = h.tr.cur(sFetch)
	}
	sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
	i := h.tr.begin(h.layer, parent)
	h.inner.ServeHTTP(sw, r)
	h.tr.end(i)
	if h.layer == lServe {
		h.tr.add(cServeRequests, 1)
		return
	}
	h.tr.add(cQueryRequests, 1)
	if sw.code/100 != 2 {
		h.tr.add(cQueryErrors, 1)
	}
}

// statusWriter remembers the response status.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// countingTransport counts response body bytes the dissem client reads.
type countingTransport struct {
	tr   *tracer
	base http.RoundTripper
}

// RoundTrip implements http.RoundTripper.
func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := c.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	resp.Body = &countingBody{ReadCloser: resp.Body, n: &c.tr.counts[cFetchBytes]}
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}
