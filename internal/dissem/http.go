package dissem

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"vpm/internal/receipt"
)

// BaseHeader is the response header a Server sets on every fetch: the
// sequence number of the oldest bundle it still retains. A client
// whose cursor lies below it has permanently missed bundles
// (DropThrough pruned them) and receives a GapError instead of a
// silently clamped stream.
const BaseHeader = "X-VPM-Base"

// ViewerHeader carries the requesting verifier's identity on fetches,
// so simulations can model per-verifier misbehavior (equivocation).
// Honest servers ignore it.
const ViewerHeader = "X-VPM-Viewer"

// DefaultFetchTimeout bounds a fetch when the caller supplies neither
// an HTTP client nor a context deadline. Without it a single hung HOP
// server stalls collection forever (http.DefaultClient has no
// timeout).
var DefaultFetchTimeout = 30 * time.Second

// GapError reports a cursor fetch reaching into a pruned range: the
// server's retention base has moved past the requested since, so
// bundles [Since, Base) are permanently gone. The caller decides
// whether to resume from Base (accepting the loss) or to treat the
// origin as having destroyed evidence.
type GapError struct {
	Origin      receipt.HOPID
	Since, Base uint64
}

// Error implements error.
func (e *GapError) Error() string {
	return fmt.Sprintf("dissem: %v pruned bundles [%d, %d); cursor %d cannot be served completely",
		e.Origin, e.Since, e.Base, e.Since)
}

// BundleError wraps a per-bundle verification failure with the origin,
// sequence number and the epoch the publisher tagged the bundle with,
// so a consumer can classify the evidence (attributed to the right
// interval) and skip past the poisoned bundle instead of stalling its
// cursor on it.
type BundleError struct {
	Origin receipt.HOPID
	Seq    uint64
	Epoch  uint64
	Err    error
}

// Error implements error.
func (e *BundleError) Error() string {
	return fmt.Sprintf("dissem: bundle %d from %v: %v", e.Seq, e.Origin, e.Err)
}

// Unwrap exposes the underlying verification failure.
func (e *BundleError) Unwrap() error { return e.Err }

// Server publishes one HOP's signed receipt bundles over HTTP. Mount
// it at a path of your choice; GET ?since=N returns all bundles with
// Seq >= N as a JSON array of SignedBundle. Wrap in TLS for the
// paper's HTTPS web-site realization.
type Server struct {
	hop    receipt.HOPID
	signer *Signer

	mu      sync.RWMutex
	bundles []published
	base    uint64 // Seq of bundles[0]; earlier bundles were dropped
	nextSeq uint64
	tamper  BundleTamper // simulation hook for dissemination attacks
}

// published is one signed bundle plus the epoch it was tagged with,
// kept in the clear so dissemination tampers can key on it without
// re-decoding payloads.
type published struct {
	sb    SignedBundle
	epoch uint64
}

// NewServer builds a publisher for one HOP.
func NewServer(hop receipt.HOPID, signer *Signer) *Server {
	return &Server{hop: hop, signer: signer}
}

// Publish signs and retains the given receipts as the next bundle,
// returning its sequence number. Batch (single-interval) use; the
// bundle is tagged epoch 0.
func (s *Server) Publish(samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) uint64 {
	return s.PublishEpoch(0, samples, aggs)
}

// PublishEpoch signs and retains one sealed epoch's receipts as the
// next bundle, tagged with the epoch so subscribers can route it into
// the matching window segment. Returns the bundle's sequence number.
func (s *Server) PublishEpoch(epoch uint64, samples []receipt.SampleReceipt, aggs []receipt.AggReceipt) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.nextSeq
	s.nextSeq++
	b := &Bundle{Origin: s.hop, Seq: seq, Epoch: epoch, Samples: samples, Aggs: aggs}
	s.bundles = append(s.bundles, published{sb: s.signer.Sign(b), epoch: epoch})
	return seq
}

// BundleCount returns how many bundles the server currently retains.
func (s *Server) BundleCount() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.bundles)
}

// Base returns the sequence number of the oldest retained bundle —
// everything below it was pruned by DropThrough.
func (s *Server) Base() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base
}

// DropThrough discards every retained bundle with Seq <= seq — the
// publisher-side garbage collection of continuous operation. Sequence
// numbers are stable across drops: later fetches with ?since continue
// to work, and a fetch reaching into the dropped range simply returns
// what is still retained (the subscriber's cursor discipline guarantees
// it already consumed the rest). Without periodic drops an endless
// epoch stream accumulates in the server forever.
func (s *Server) DropThrough(seq uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if seq < s.base {
		return
	}
	n := seq - s.base + 1
	if n > uint64(len(s.bundles)) {
		n = uint64(len(s.bundles))
	}
	s.bundles = append(s.bundles[:0:0], s.bundles[n:]...)
	s.base += n
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	since := uint64(0)
	if q := r.URL.Query().Get("since"); q != "" {
		v, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad since parameter", http.StatusBadRequest)
			return
		}
		since = v
	}
	viewer := r.URL.Query().Get("viewer")
	if viewer == "" {
		viewer = r.Header.Get(ViewerHeader)
	}
	s.mu.RLock()
	var out []SignedBundle
	base := s.base
	start := uint64(0)
	if since > s.base {
		start = since - s.base
	}
	if start < uint64(len(s.bundles)) {
		for i, p := range s.bundles[start:] {
			sb := p.sb
			if s.tamper != nil {
				var ok bool
				if sb, ok = s.tamper.Serve(viewer, s.base+start+uint64(i), p.epoch, sb); !ok {
					continue
				}
			}
			out = append(out, sb)
		}
	}
	s.mu.RUnlock()
	// The base is always advertised: a cursor below it has permanently
	// missed bundles, and silently clamping would hide that from the
	// lagging verifier (FetchEach promises all bundles with Seq >= since).
	w.Header().Set(BaseHeader, strconv.FormatUint(base, 10))
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(out); err != nil {
		// Connection-level failure; nothing more to do.
		return
	}
}

// Client fetches and authenticates bundles from HOP servers.
type Client struct {
	// HTTP is the underlying client. nil selects a default client with
	// DefaultFetchTimeout — never the timeout-less http.DefaultClient,
	// which would let one hung HOP stall collection forever. Context
	// deadlines on the fetch calls are honored either way.
	HTTP *http.Client
	// Registry supplies the verification key per origin HOP.
	Registry Registry
	// Viewer optionally identifies this verifier to servers (sent as
	// the X-VPM-Viewer header); simulations use it to model
	// per-verifier misbehavior.
	Viewer string
}

// FetchEach retrieves the bundles with Seq >= since from the HOP
// server at baseURL and streams them to fn: the server's JSON response
// is decoded incrementally, each bundle is signature-verified against
// the registered key of origin as it arrives, and fn is invoked per
// authenticated bundle — the whole interval's receipts never sit in
// memory at once, and unauthenticated receipts are never delivered. A
// verification failure or an fn error aborts the stream and is
// returned; bundles already passed to fn stay consumed (ingest is
// incremental by design — pair FetchEach with a Verifier whose answers
// are only read after a successful drain). When the server advertises
// a retention base above since (it pruned bundles the cursor never
// consumed), FetchEach returns a GapError before delivering anything:
// the caller must decide how to handle the permanently missing bundles
// rather than silently skipping them.
//
// A signature failure and a GapError come back wrapped in Permanent:
// refetching serves the same forged bundle or the same pruned range,
// so Retry stops at once. Transport, status and decode errors stay
// retryable — a connection cut mid-body is transient.
func (c *Client) FetchEach(ctx context.Context, baseURL string, origin receipt.HOPID, since uint64, fn func(*Bundle) error) error {
	pub, ok := c.Registry[origin]
	if !ok {
		return fmt.Errorf("dissem: no registered key for %v", origin)
	}
	hc := c.HTTP
	if hc == nil {
		hc = &http.Client{Timeout: DefaultFetchTimeout}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s?since=%d", baseURL, since), nil)
	if err != nil {
		return err
	}
	if c.Viewer != "" {
		req.Header.Set(ViewerHeader, c.Viewer)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return fmt.Errorf("dissem: fetching %v: %w", origin, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dissem: %v returned %s", origin, resp.Status)
	}
	if h := resp.Header.Get(BaseHeader); h != "" {
		base, err := strconv.ParseUint(h, 10, 64)
		if err == nil && base > since {
			return Permanent(&GapError{Origin: origin, Since: since, Base: base})
		}
	}
	dec := json.NewDecoder(resp.Body)
	tok, err := dec.Token()
	if err != nil {
		return fmt.Errorf("dissem: decoding response from %v: %w", origin, err)
	}
	if tok == nil {
		return nil // JSON null: no bundles
	}
	if d, ok := tok.(json.Delim); !ok || d != '[' {
		return fmt.Errorf("dissem: response from %v is not a bundle array", origin)
	}
	for i := 0; dec.More(); i++ {
		var sb SignedBundle
		if err := dec.Decode(&sb); err != nil {
			return fmt.Errorf("dissem: decoding bundle %d from %v: %w", i, origin, err)
		}
		b, err := Verify(pub, origin, sb)
		if err != nil {
			return Permanent(fmt.Errorf("dissem: bundle %d from %v: %w", i, origin, err))
		}
		if err := fn(b); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return fmt.Errorf("dissem: decoding response from %v: %w", origin, err)
	}
	return nil
}

// Bus is an in-memory alternative to the HTTP transport for
// simulations: publish and subscribe without sockets, with the same
// sign/verify discipline.
type Bus struct {
	mu      sync.RWMutex
	servers map[receipt.HOPID]*Server
}

// NewBus creates an empty bus.
func NewBus() *Bus {
	return &Bus{servers: make(map[receipt.HOPID]*Server)}
}

// Attach registers a HOP's server on the bus.
func (b *Bus) Attach(s *Server) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.servers[s.hop] = s
}

// CollectSince streams the HOP's verified bundles with Seq >= since to
// fn and returns the next since value — the incremental-subscription
// primitive: a rolling verifier polls each HOP with the cursor from
// the previous call and sees every bundle exactly once. The cursor
// advances only past bundles fn consumed successfully, so retrying
// with the returned cursor after an error re-delivers the failed
// bundle (at-least-once). When the server pruned bundles the cursor
// never consumed (DropThrough moved its base past since), CollectSince
// returns a GapError instead of silently skipping the gap; resume from
// the error's Base to accept the loss explicitly.
func (b *Bus) CollectSince(reg Registry, origin receipt.HOPID, since uint64, fn func(*Bundle) error) (uint64, error) {
	return b.CollectSinceAs("", reg, origin, since, fn)
}

// CollectSinceAs is CollectSince with a viewer identity, which
// simulated per-verifier misbehavior (an Equivocator tamper) keys on.
// A verification failure is returned as a *BundleError naming the
// origin and sequence, so the consumer can classify it and resume past
// the poisoned bundle. fn runs outside the bus and server locks, so it
// may ingest into a verifier (or publish elsewhere) freely.
func (b *Bus) CollectSinceAs(viewer string, reg Registry, origin receipt.HOPID, since uint64, fn func(*Bundle) error) (uint64, error) {
	s, ok := b.server(origin)
	if !ok {
		return since, fmt.Errorf("dissem: HOP %v not on bus", origin)
	}
	if base := s.Base(); since < base {
		return since, &GapError{Origin: origin, Since: since, Base: base}
	}
	pub, ok := reg[origin]
	if !ok {
		return since, fmt.Errorf("dissem: no registered key for %v", origin)
	}
	next := since
	for i := since; ; i++ {
		s.mu.RLock()
		// Skip what a concurrent DropThrough pruned meanwhile.
		if i < s.base {
			i = s.base
		}
		idx := i - s.base
		if idx >= uint64(len(s.bundles)) {
			s.mu.RUnlock()
			return next, nil
		}
		p := s.bundles[idx]
		tamper := s.tamper
		s.mu.RUnlock()
		sb := p.sb
		if tamper != nil {
			var serve bool
			if sb, serve = tamper.Serve(viewer, i, p.epoch, sb); !serve {
				continue // withheld: the consumer sees only absence
			}
		}
		bundle, err := Verify(pub, origin, sb)
		if err != nil {
			return next, &BundleError{Origin: origin, Seq: i, Epoch: p.epoch, Err: err}
		}
		if err := fn(bundle); err != nil {
			return next, err
		}
		next = i + 1
	}
}

// server resolves an attached HOP server.
func (b *Bus) server(origin receipt.HOPID) (*Server, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	s, ok := b.servers[origin]
	return s, ok
}
