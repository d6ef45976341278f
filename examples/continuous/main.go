// Continuous multi-interval operation: the Figure 1 deployment run as
// a stream of rotating epochs instead of a one-shot batch.
//
// Each iteration generates one epoch's worth of traffic and drives it
// across the path (network state persists between segments via the
// SimRunner). Every HOP's collector sits behind an epoch clock that
// rotates when the HOP's local observation time crosses an interval
// boundary, sealing that epoch's receipts into a WindowedStore — one
// receipt-store segment per epoch. A RollingVerifier verifies each
// epoch as soon as every HOP has sealed it and the window evicts
// verified epochs older than the retention, so memory stays bounded
// no matter how long the node runs. Rotation repackages the receipt
// stream without changing it: an aggregate straddling a boundary keeps
// counting and lands in the epoch where it closes.
package main

import (
	"fmt"
	"log"

	"vpm"
)

func main() {
	const (
		epochs     = 8
		intervalNS = 100_000_000 // 100 ms epochs
		ratePPS    = 20000
		retention  = 2
		seed       = 7
	)

	// Traffic source: a pull-based generator sliced at epoch
	// boundaries, so only one interval's packets are in memory at once.
	tc := vpm.TraceConfig{
		Seed:       seed,
		DurationNS: epochs * intervalNS,
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(ratePPS)},
	}
	gen, err := vpm.NewTraceGenerator(tc)
	if err != nil {
		log.Fatal(err)
	}

	// The paper's Figure 1 path with a full deployment on every HOP.
	path := vpm.Fig1Path(seed + 1)
	dep, err := vpm.NewDeployment(path, tc.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		log.Fatal(err)
	}

	var hops []vpm.HOPID
	for id := range dep.Collectors {
		hops = append(hops, id)
	}
	win, err := vpm.NewWindowedStore(hops, retention)
	if err != nil {
		log.Fatal(err)
	}

	// Sealed epochs flow straight into the windowed store. (vpm-node
	// interposes signed epoch-tagged dissemination bundles here.)
	driver, err := vpm.NewEpochDriver(dep, intervalNS, win.Sink())
	if err != nil {
		log.Fatal(err)
	}

	rolling := vpm.NewRollingVerifier(dep.Layout(), dep.VerifierConfig(), win, vpm.DefaultQuantiles, 0.95)

	runner, err := vpm.NewTopoRunner(path, tc.Table())
	if err != nil {
		log.Fatal(err)
	}
	for e := int64(1); e <= epochs; e++ {
		// The horizon tells the runner no future packet is sent before
		// it, so boundary observations are withheld and merged into the
		// next segment in global arrival order.
		chunk := gen.NextChunk(e * intervalNS)
		if _, err := runner.RunSegment(chunk, driver.Observers(), e*intervalNS); err != nil {
			log.Fatal(err)
		}
		report(rolling, win)
	}
	if _, err := runner.Run(nil, driver.Observers()); err != nil {
		log.Fatal(err) // deliver the observations withheld at the last boundary
	}
	driver.Close()     // seal the terminal epochs
	win.FinishStream() // release the final epoch for verification
	report(rolling, win)

	st := win.Stats()
	fmt.Printf("done: window holds %d segments (%d evicted) after %d epochs\n",
		st.Segments, st.Evicted, epochs)
}

// report verifies every epoch all HOPs have sealed, prints its delta,
// and lets the window GC what has aged out.
func report(rolling *vpm.RollingVerifier, win *vpm.WindowedStore) {
	reps, err := rolling.VerifyReady()
	if err != nil {
		log.Fatal(err)
	}
	for _, rep := range reps {
		fmt.Printf("epoch %d: matched=%d violations=%d", rep.Epoch, rep.MatchedSamples(), rep.Violations())
		for _, k := range rep.Keys {
			for _, dom := range k.Domains {
				if dom.Name == "X" && len(dom.DelayEstimates) > 0 {
					fmt.Printf("  X: loss=%.2f%% p50=%.2fms",
						dom.Loss.Rate()*100, dom.DelayEstimates[0].Point/1e6)
				}
			}
		}
		fmt.Println()
	}
	win.Evict()
}
