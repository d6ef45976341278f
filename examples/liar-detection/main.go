// Liar detection: the verifiability arguments of §3.1 and §4, acted
// out.
//
// Domain X drops 20% of the traffic it carries. Three stories run on
// identical traffic:
//
//  1. X reports honestly: its loss is computed exactly; all links are
//     consistent.
//  2. X lies (blame shift): it fabricates egress receipts claiming it
//     delivered everything. Its own numbers look perfect — but the X-N
//     link lights up with inconsistencies, exposing X to the neighbor
//     it implicated.
//  3. X lies and N covers (collusion): the X-N link goes quiet, but
//     the missing packets now appear to vanish inside N — the colluder
//     absorbs the blame, exactly the §3.1 incentive argument.
//
// Run with: go run ./examples/liar-detection
package main

import (
	"fmt"
	"log"

	"vpm"
)

func main() {
	// Shared world: Figure 1, X drops 20%.
	traceCfg := vpm.TraceConfig{
		Seed:       31,
		DurationNS: int64(500e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}

	path := vpm.Fig1Path(41)
	xi := path.DomainIndex("X")
	loss, err := vpm.GilbertElliottLoss(0.20, 8, 43)
	if err != nil {
		log.Fatal(err)
	}
	path.Domains[xi].Loss = loss

	dep, err := vpm.NewDeployment(path, traceCfg.Table(), vpm.DefaultDeployConfig())
	if err != nil {
		log.Fatal(err)
	}
	runner, err := vpm.NewTopoRunner(path, traceCfg.Table())
	if err != nil {
		log.Fatal(err)
	}
	truth, err := runner.Run(pkts, dep.Observers())
	if err != nil {
		log.Fatal(err)
	}
	dep.Finalize()
	xTruth, _ := truth.DomainByName("X")
	fmt.Printf("ground truth: X dropped %d of %d packets (%.1f%%)\n\n",
		xTruth.DroppedInside, xTruth.In, xTruth.LossRate()*100)

	honest(dep, key)
	blameShift(dep, path, key)
	coverUp(dep, path, key, xTruth.DroppedInside)
}

func honest(dep *vpm.Deployment, key vpm.PathKey) {
	fmt.Println("=== story 1: X reports honestly ===")
	v := dep.NewVerifier(key)
	rep, err := v.DomainReport("X", vpm.DefaultQuantiles, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  X's receipts show %.1f%% loss — the truth, computed exactly\n", rep.Loss.Rate()*100)
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
	fmt.Println()
}

// liarVerifier rebuilds a verifier with X's egress receipts replaced
// by fabrications, and (optionally) N's ingress receipts replaced by
// cover-ups.
func liarVerifier(dep *vpm.Deployment, path *vpm.Topology, key vpm.PathKey, cover bool) *vpm.Verifier {
	v := vpm.NewVerifierFor(dep.Layout(), key)
	v.SetConfig(dep.VerifierConfig())
	var xInSamples vpm.SampleReceipt
	var xInAggs []vpm.AggReceipt
	for hop, proc := range dep.Processors {
		if hop == 5 || (cover && hop == 6) {
			continue // replaced below
		}
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key == key {
				v.AddSampleReceipt(hop, s)
				if hop == 4 {
					xInSamples = s
				}
			}
		}
		var aggs []vpm.AggReceipt
		for _, a := range proc.Aggs {
			if a.Path.Key == key {
				aggs = append(aggs, a)
			}
		}
		v.AddAggReceipts(hop, aggs)
		if hop == 4 {
			xInAggs = aggs
		}
	}
	egressPath := path.PathIDFor(key, 5) // X egress
	fs, fa := vpm.FabricateDelivery(xInSamples, xInAggs, egressPath, 500_000)
	v.AddSampleReceipt(5, fs)
	v.AddAggReceipts(5, fa)
	if cover {
		nIngress := path.PathIDFor(key, 6) // N ingress
		v.AddSampleReceipt(6, vpm.CoverUpReceipt(fs, nIngress, 1_000_000))
		v.AddAggReceipts(6, vpm.CoverUpAggs(fa, nIngress, 1_000_000))
	}
	return v
}

func blameShift(dep *vpm.Deployment, path *vpm.Topology, key vpm.PathKey) {
	fmt.Println("=== story 2: X fabricates delivery receipts ===")
	v := liarVerifier(dep, path, key, false)
	rep, err := v.DomainReport("X", vpm.DefaultQuantiles, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  X's forged receipts show %.1f%% loss — looks perfect\n", rep.Loss.Rate()*100)
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
	fmt.Println("  -> the X-N inconsistencies expose X to N: either the link is broken, or X lied")
	fmt.Println()
}

func coverUp(dep *vpm.Deployment, path *vpm.Topology, key vpm.PathKey, trueDrops uint64) {
	fmt.Println("=== story 3: N colludes and covers X's lie ===")
	v := liarVerifier(dep, path, key, true)
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
	nRep, err := v.DomainReport("N", vpm.DefaultQuantiles, 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  -> links are quiet, but N now shows %d lost packets (X actually dropped %d):\n",
		nRep.Loss.Lost, trueDrops)
	fmt.Println("     covering for a liar means taking the blame yourself (§3.1)")
}
