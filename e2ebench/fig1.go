package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/experiments"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/segstore"
	"vpm/internal/seqdetect"
	"vpm/internal/trace"
)

// fig1Spec is a workload on the paper's Figure 1 path (8 HOPs, one
// origin-prefix key, healthy defaults) run the way cmd/vpm-node runs
// with -data-dir, -http and -sequential: the in-process dissem.Bus, a
// durable segstore beneath the window, the query API read by a client
// while epochs are written, and the SPRT arm on.
type fig1Spec struct {
	ratePPS    float64
	intervalNS int64
}

func (f fig1Spec) config(seed uint64) experiments.Config {
	return experiments.Config{Seed: seed, RatePPS: f.ratePPS, DurationNS: f.intervalNS}.Normalize()
}

// epochConfig matches cmd/vpm-node's defaults: retention 2, one
// collector shard, one verifier worker.
func (f fig1Spec) epochConfig() core.EpochConfig {
	return core.EpochConfig{IntervalNS: f.intervalNS, Retention: 2, Workers: 1, Shards: 1}
}

// options are the pipeline options the in-process reference
// (experiments.RunContinuousOpts) runs with; the store changes no
// verdict, so the reference runs without one.
func options() experiments.ContinuousOptions {
	sq := seqdetect.DefaultConfig()
	return experiments.ContinuousOptions{Sequential: &sq}
}

// reference runs the same stream through experiments.RunContinuousOpts,
// the engine behind cmd/vpm-node.
func (f fig1Spec) reference(seed uint64, epochs int) ([]core.EpochReport, error) {
	res, err := experiments.RunContinuousOpts(f.config(seed), f.epochConfig(), epochs, options())
	if err != nil {
		return nil, err
	}
	if len(res.Unverified) > 0 || len(res.DissemFindings) > 0 {
		return nil, fmt.Errorf("reference left %d epochs unverified with %d dissemination findings", len(res.Unverified), len(res.DissemFindings))
	}
	return res.Reports, nil
}

// fig1World is one built Fig1 pipeline, ready to run once.
type fig1World struct {
	spec   fig1Spec
	s      *stream
	chunks [][]packet.Packet

	store *segstore.Store
	dir   string
}

// hopSigner is experiments' per-HOP key derivation (two seed bytes),
// so the bundles here carry the signatures vpm-node's would.
func hopSigner(seed uint64, hop receipt.HOPID) *dissem.Signer {
	var k [32]byte
	k[0], k[1] = byte(seed), byte(hop)
	return dissem.NewSigner(k)
}

// build sets up the world (path, prefix table, deployment, signers),
// generates the trace, and opens the store in dir, which must not
// exist yet.
func (f fig1Spec) build(seed uint64, epochs int, dir string, tr *tracer) (_ *fig1World, err error) {
	cfg, ec, opts := f.config(seed), f.epochConfig(), options()
	fw := &fig1World{spec: f}
	defer func() {
		if err != nil {
			fw.close()
		}
	}()

	// Load generator: the same trace.Generator stream
	// RunContinuousOpts cuts per epoch, cut here ahead of time.
	tc := trace.Config{
		Seed:       cfg.Seed,
		DurationNS: int64(epochs) * ec.IntervalNS,
		Paths:      []trace.PathSpec{trace.DefaultPath(cfg.RatePPS)},
	}
	start := time.Now()
	gen, err := trace.NewGenerator(tc)
	if err != nil {
		return nil, err
	}
	fw.chunks = make([][]packet.Packet, epochs)
	pkts := 0
	for e := range fw.chunks {
		fw.chunks[e] = gen.NextChunk(int64(e+1) * ec.IntervalNS)
		pkts += len(fw.chunks[e])
	}
	genDur := time.Since(start)

	path := netsim.Fig1Path(cfg.Seed + 1000)
	dc := core.DefaultDeployConfig()
	dc.Shards = ec.Shards
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	if err != nil {
		return nil, err
	}
	bus := dissem.NewBus()
	reg := make(dissem.Registry)
	servers := make(map[receipt.HOPID]*dissem.Server)
	for id := range dep.Processors {
		signer := hopSigner(cfg.Seed, id)
		servers[id] = dissem.NewServer(id, signer)
		bus.Attach(servers[id])
		reg[id] = signer.Public()
	}
	hops := sortedHOPs(servers)

	win, err := core.NewWindowedStore(hops, ec.Retention)
	if err != nil {
		return nil, err
	}
	// cmd/vpm-node's store options with -data-dir.
	st, _, err := segstore.Open(dir, segstore.Options{AutoCompact: true})
	if err != nil {
		return nil, err
	}
	fw.store, fw.dir = st, dir
	var b core.StoreBackend = segstore.Backend{Store: st}
	if tr != nil {
		b = &tracedBackend{tr: tr, inner: b}
	}
	win.AttachBackend(b)
	vc := dep.VerifierConfig()
	vc.Workers = ec.Workers
	vc.Sequential = opts.Sequential

	s := &stream{
		tr:       tr,
		segments: epochs,
		win:      win,
		rolling:  core.NewRollingVerifier(dep.Layout(), vc, win, quantile.DefaultQuantiles, cfg.Confidence),
		nHOPs:    len(hops),
	}
	s.packets, s.genDur = pkts, genDur
	fw.s = s

	driver, err := core.NewEpochDriver(dep, ec.IntervalNS, s.publishTo(servers))
	if err != nil {
		return nil, err
	}
	runner, err := netsim.NewRunner(path)
	if err != nil {
		return nil, err
	}
	observers := s.observe(driver.Observers())

	s.simulate = func(i int) error {
		chunk := fw.chunks[i]
		fw.chunks[i] = nil // the trace is consumed as it is replayed
		sp := tr.enter(lNetsim, sNetsim, -1)
		_, err := runner.RunSegment(chunk, observers, int64(i+1)*ec.IntervalNS)
		tr.leave(sp, sNetsim)
		return err
	}
	s.flush = func() error {
		sp := tr.enter(lNetsim, sNetsim, -1)
		_, err := runner.Run(nil, observers)
		tr.leave(sp, sNetsim)
		return err
	}
	s.closeHOPs = func() { driver.Close() }

	cursors := make(map[receipt.HOPID]uint64, len(hops))
	s.fetch = func(ingest func(*dissem.Bundle) error) error {
		for _, id := range hops {
			got := 0
			sp := tr.enter(lFetch, sFetch, -1)
			next, err := bus.CollectSince(reg, id, cursors[id], func(b *dissem.Bundle) error {
				got++
				s.fetchBytes += int64(b.WireSize() + signatureSize)
				return ingest(b)
			})
			tr.leave(sp, sFetch)
			s.countFetch(got, 0, err)
			if err != nil {
				return fmt.Errorf("collect %v: %w", id, err)
			}
			cursors[id] = next
			if next > 0 {
				servers[id].DropThrough(next - 1)
			}
		}
		return nil
	}
	return fw, nil
}

func (fw *fig1World) stream() *stream { return fw.s }

// run drives the stream while a query client reads the store over
// loopback HTTP.
func (fw *fig1World) run() error {
	var h http.Handler = segstore.NewHandler(fw.store, segstore.APIConfig{IntervalNS: fw.spec.intervalNS})
	if fw.s.tr != nil {
		h = &tracedHandler{tr: fw.s.tr, layer: lQuery, inner: h}
	}
	// The stream seals one epoch per segment plus at most one terminal
	// epoch, and each is verified once.
	q, err := startQueryClient(h, fw.s.segments+1)
	if err != nil {
		return err
	}
	fw.s.onReports = func(reps []core.EpochReport) {
		for _, rep := range reps {
			q.verified <- rep.Epoch
		}
	}
	runErr := fw.s.run()
	if err := q.stop(); runErr == nil {
		runErr = err
	}
	fw.s.queryLatMS, fw.s.queries, fw.s.queriesFailed = q.latMS, q.attempted, q.fails
	return runErr
}

// close releases the store and removes its directory.
func (fw *fig1World) close() error {
	if fw.store == nil {
		return nil
	}
	err := fw.store.Close()
	if rerr := os.RemoveAll(fw.dir); err == nil {
		err = rerr
	}
	fw.store = nil
	return err
}

// queryClient reads the historical-verdict API over loopback while
// epochs are written. For every verified epoch it requests that epoch
// and the three before it from /api/v1/verdicts, then /api/v1/epochs.
// The read load per epoch stays the same however fast the pipeline
// runs, and each latency counts from its request's start.
type queryClient struct {
	srv *http.Server
	// verified carries each verified epoch from the verifier to the
	// client; it holds one slot per epoch of the stream, so a send
	// never waits for the client.
	verified chan core.EpochID
	// served ends with the server, looped with the client loop.
	served, looped sync.WaitGroup

	latMS            []float64
	attempted, fails int
}

func startQueryClient(h http.Handler, epochs int) (*queryClient, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	q := &queryClient{
		srv:      &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		verified: make(chan core.EpochID, epochs),
	}
	q.served.Add(1)
	go func() {
		defer q.served.Done()
		if err := q.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "query server:", err)
		}
	}()
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	base := "http://" + ln.Addr().String()
	q.looped.Add(1)
	go func() {
		defer q.looped.Done()
		defer tr.CloseIdleConnections()
		for e := range q.verified {
			for _, url := range []string{
				fmt.Sprintf("%s/api/v1/verdicts?from=%d&to=%d", base, max(e, 3)-3, e),
				base + "/api/v1/epochs",
			} {
				start := time.Now()
				q.attempted++
				if !get(client, url) {
					q.fails++
				}
				q.latMS = append(q.latMS, float64(time.Since(start))/1e6)
			}
		}
	}()
	return q, nil
}

// get performs one query; false on a transport error or a non-2xx.
func get(c *http.Client, url string) bool {
	resp, err := c.Get(url)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return false
	}
	return resp.StatusCode/100 == 2
}

// stop lets the client finish the epochs it was sent, then stops the
// server, and waits for both.
func (q *queryClient) stop() error {
	close(q.verified)
	q.looped.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := q.srv.Shutdown(ctx)
	q.served.Wait()
	return err
}
