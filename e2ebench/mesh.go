package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"vpm/internal/core"
	"vpm/internal/dissem"
	"vpm/internal/fleet"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/receipt"
)

// meshSpec is a workload on a fleet.Spec world (random-AS topology
// over WideKeys) whose bundles travel over loopback HTTP: one
// dissem.Server per HOP behind one mux, polled per HOP with
// dissem.Client.FetchEach, as a width-1 vpm-fleet verifier polls its
// collectors.
//
// The world is built from one fixed seed and the workload seed only
// reorders which key each packet slot carries: a random-AS seed also
// redraws the topology, whose HOP count (and with it every per-packet
// cost) varies by ±10% from seed to seed.
type meshSpec struct {
	domains, extraLinks, keys int
	intervalNS                int64
	ratePPS                   float64
}

// meshWorldSeed seeds the topology, routes and signing keys.
const meshWorldSeed = 1

func (m meshSpec) fleetSpec(epochs int) fleet.Spec {
	return fleet.Spec{
		Seed: meshWorldSeed, Domains: m.domains, ExtraLinks: m.extraLinks, Keys: m.keys,
		Epochs: epochs, IntervalNS: m.intervalNS, RatePPS: m.ratePPS,
		Collectors: 1, Workers: 1,
	}
}

// slotsPerEpoch is the packet count of one epoch; the stream simulates
// one epoch per segment.
func (m meshSpec) slotsPerEpoch() int64 {
	return int64(math.Round(m.ratePPS * float64(m.intervalNS) / 1e9))
}

// world builds the fleet world with the key order of the workload
// seed: fleet.Spec.PacketsForSlots gives slot g to w.Keys[g mod keys].
func (m meshSpec) world(seed uint64, epochs int) (*fleet.World, error) {
	w, err := m.fleetSpec(epochs).Build()
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewPCG(seed, 0x6d657368))
	r.Shuffle(len(w.Keys), func(i, j int) { w.Keys[i], w.Keys[j] = w.Keys[j], w.Keys[i] })
	return w, nil
}

// reference runs the same world in-process with fleet.RunReference,
// cut into the same one-epoch segments.
func (m meshSpec) reference(seed uint64, epochs int) ([]core.EpochReport, error) {
	w, err := m.world(seed, epochs)
	if err != nil {
		return nil, err
	}
	return fleet.RunReference(w, m.slotsPerEpoch())
}

// meshWorld is one built mesh pipeline, ready to run once.
type meshWorld struct {
	s      *stream
	chunks [][]packet.Packet

	srv       *http.Server
	served    sync.WaitGroup
	transport *http.Transport
}

// build expands the spec (topology, routes, prefix table, deployment,
// signers), generates the traffic, and starts the bundle feeds on
// loopback.
func (m meshSpec) build(seed uint64, epochs int, tr *tracer) (*meshWorld, error) {
	w, err := m.world(seed, epochs)
	if err != nil {
		return nil, err
	}
	spec := w.Spec
	mw := &meshWorld{}

	// Load generator: fleet.Spec's slot traffic, one chunk per epoch.
	start := time.Now()
	per, total := m.slotsPerEpoch(), spec.TotalSlots()
	var horizons []int64
	pkts := 0
	for lo := int64(0); lo < total; lo += per {
		c := spec.PacketsForSlots(w.Keys, lo, lo+per)
		mw.chunks = append(mw.chunks, c)
		pkts += len(c)
		if lo > 0 {
			horizons = append(horizons, c[0].SentAt)
		}
	}
	horizons = append(horizons, 1<<62) // the last segment delivers everything
	genDur := time.Since(start)

	servers := make(map[receipt.HOPID]*dissem.Server, len(w.HOPs))
	mux := http.NewServeMux()
	for _, h := range w.HOPs {
		servers[h] = dissem.NewServer(h, spec.Signer(h))
		mux.Handle(feedPath(h), servers[h])
	}
	var handler http.Handler = mux
	if tr != nil {
		handler = &tracedHandler{tr: tr, layer: lServe, inner: handler}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mw.srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	mw.served.Add(1)
	go func() {
		defer mw.served.Done()
		if err := mw.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "bundle server:", err)
		}
	}()
	base := "http://" + ln.Addr().String()
	// One keep-alive connection carries every poll: the verifier
	// fetches HOP by HOP.
	mw.transport = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	var rt http.RoundTripper = mw.transport
	if tr != nil {
		rt = &countingTransport{tr: tr, base: rt}
	}
	client := &dissem.Client{HTTP: &http.Client{Transport: rt, Timeout: 10 * time.Second}, Registry: w.Registry()}

	// Retention 3, as fleet.NewVerifier and fleet.RunReference use.
	win, err := core.NewWindowedStore(w.HOPs, 3)
	if err != nil {
		mw.close()
		return nil, err
	}
	rolling := core.NewRollingVerifier(core.Layout{}, w.VerifierConfig(), win, nil, 0.95)
	rolling.SetKeyLayouts(w.Dep.KeyLayouts())
	s := &stream{tr: tr, segments: len(mw.chunks), win: win, rolling: rolling, nHOPs: len(w.HOPs)}
	s.packets, s.genDur = pkts, genDur
	mw.s = s
	driver, err := core.NewEpochDriver(w.Dep, spec.IntervalNS, s.publishTo(servers))
	if err != nil {
		mw.close()
		return nil, err
	}
	runner, err := netsim.NewTopoRunner(w.Topo, w.Table)
	if err != nil {
		mw.close()
		return nil, err
	}
	observers := s.observe(driver.Observers())

	s.simulate = func(i int) error {
		chunk := mw.chunks[i]
		mw.chunks[i] = nil // the traffic is consumed as it is replayed
		sp := tr.enter(lNetsim, sNetsim, -1)
		_, err := runner.RunSegment(chunk, observers, horizons[i])
		tr.leave(sp, sNetsim)
		return err
	}
	s.closeHOPs = func() { driver.CloseAt(w.Terminal) }

	cursors := make(map[receipt.HOPID]uint64, len(w.HOPs))
	ctx := context.Background()
	s.fetch = func(ingest func(*dissem.Bundle) error) error {
		for _, h := range w.HOPs {
			got, attempts := 0, 0
			sp := tr.enter(lFetch, sFetch, -1)
			err := dissem.Retry(ctx, dissem.DefaultRetryPolicy, func() error {
				attempts++
				return client.FetchEach(ctx, base+feedPath(h), h, cursors[h], func(b *dissem.Bundle) error {
					got++
					s.fetchBytes += int64(b.WireSize() + signatureSize)
					if err := ingest(b); err != nil {
						return dissem.Permanent(err) // no retry fixes a refused bundle
					}
					cursors[h] = b.Seq + 1
					return nil
				})
			})
			tr.leave(sp, sFetch)
			s.countFetch(got, attempts-1, err)
			if err != nil {
				return fmt.Errorf("fetch %v: %w", h, err)
			}
			if c := cursors[h]; c > 0 {
				servers[h].DropThrough(c - 1)
			}
		}
		return nil
	}
	return mw, nil
}

func feedPath(h receipt.HOPID) string { return fmt.Sprintf("/hop/%d/receipts", h) }

func (mw *meshWorld) stream() *stream { return mw.s }
func (mw *meshWorld) run() error      { return mw.s.run() }

// close stops the bundle server and waits for it.
func (mw *meshWorld) close() error {
	if mw.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := mw.srv.Shutdown(ctx)
	mw.served.Wait()
	mw.transport.CloseIdleConnections()
	mw.srv = nil
	return err
}
