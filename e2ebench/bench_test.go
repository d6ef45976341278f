package main

import (
	"path/filepath"
	"reflect"
	"testing"
)

// smallWorkloads are the workloads at a scale a test can afford.
var smallWorkloads = workloadsFor(
	fig1Spec{ratePPS: 20_000, intervalNS: 250e6},
	meshSpec{domains: 12, extraLinks: 6, keys: 256, intervalNS: 100e6, ratePPS: 2_000},
)

// layersOf lists the layers each workload must record time in.
var layersOf = map[string][]layer{
	"fig1-deep": {lNetsim, lCollect, lPublish, lFetch, lIngest, lVerify, lEvict, lPersist, lQuery},
	"mesh-wide": {lNetsim, lCollect, lPublish, lServe, lFetch, lIngest, lVerify, lEvict},
}

// TestTracingKeepsVerdicts runs every workload untraced and traced and
// requires both verdict streams to equal the in-process reference's:
// the traced run's wrappers must not change what the program computes.
func TestTracingKeepsVerdicts(t *testing.T) {
	const seed, epochs = 3, 8
	for _, w := range smallWorkloads {
		t.Run(w.name, func(t *testing.T) {
			ref, err := w.reference(seed, epochs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fingerprint(ref)
			if err != nil {
				t.Fatal(err)
			}
			for _, tr := range []*tracer{nil, newTracer()} {
				wld, err := w.build(seed, epochs, filepath.Join(t.TempDir(), "store"), tr)
				if err != nil {
					t.Fatal(err)
				}
				p, err := timedPass(wld, tr)
				if cerr := wld.close(); cerr != nil {
					t.Error(cerr)
				}
				if err != nil {
					t.Fatal(err)
				}
				if p.fingerprint != want {
					t.Errorf("traced=%v: fingerprint %s, reference %s", tr != nil, p.fingerprint, want)
				}
				if att, failed := p.ops(); att == 0 || failed != 0 {
					t.Errorf("traced=%v: %d of %d operations failed", tr != nil, failed, att)
				}
				if tr == nil {
					continue
				}
				lt := tr.fold()
				for _, l := range layersOf[w.name] {
					if lt[l].calls == 0 || lt[l].busyNS <= 0 {
						t.Errorf("layer %s recorded no time", layerNames[l])
					}
					if lt[l].selfNS < 0 || lt[l].selfNS > lt[l].busyNS {
						t.Errorf("layer %s: self %d ns outside [0, busy %d ns]", layerNames[l], lt[l].selfNS, lt[l].busyNS)
					}
				}
			}
		})
	}
}

// TestTracedObserverIsComparable guards netsim's replay grouping: HOPs
// with distinct comparable observers replay in parallel, while every
// non-comparable observer would fold into one serial group.
func TestTracedObserverIsComparable(t *testing.T) {
	var o any = newTracedObserver(newTracer(), nil)
	if !reflect.TypeOf(o).Comparable() {
		t.Fatal("tracedObserver is not comparable")
	}
	for _, v := range []any{&tracedBackend{}, &tracedHandler{}} {
		if !reflect.TypeOf(v).Comparable() {
			t.Errorf("%T is not comparable", v)
		}
	}
}

// TestFoldSubtractsChildUnion checks self time on concurrent children:
// two overlapping children cover their union once.
func TestFoldSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{layer: lNetsim, parent: -1, start: 0, end: 100},
		{layer: lCollect, parent: 0, start: 10, end: 60},
		{layer: lCollect, parent: 0, start: 40, end: 80},
		{layer: lPublish, parent: 1, start: 20, end: 30},
	}
	lt := tr.fold()
	if got := lt[lNetsim]; got.busyNS != 100 || got.selfNS != 30 {
		t.Errorf("netsim busy/self %d/%d, want 100/30", got.busyNS, got.selfNS)
	}
	if got := lt[lCollect]; got.busyNS != 90 || got.selfNS != 80 {
		t.Errorf("collect busy/self %d/%d, want 90/80", got.busyNS, got.selfNS)
	}
}
