// SLA verification: the paper's motivating use case (§1).
//
// A customer domain has an SLA with transit provider X promising a
// 90th-percentile delay of at most 6 ms and a loss rate of at most 1%.
// The customer collects X's receipts (plus its neighbors', to verify
// them) and decides — with distribution-free confidence bounds —
// whether the SLA held. Two scenarios run back to back: a compliant X
// and a congested, lossy X.
//
// Run with: go run ./examples/sla-verification
package main

import (
	"fmt"
	"log"

	"vpm"
)

// The SLA under test.
const (
	slaQuantile   = 0.90
	slaDelayMS    = 6.0
	slaLossPct    = 1.0
	slaConfidence = 0.95
)

func main() {
	fmt.Printf("SLA: p%.0f delay <= %.1f ms, loss <= %.1f%% (verified at %.0f%% confidence)\n",
		slaQuantile*100, slaDelayMS, slaLossPct, slaConfidence*100)

	run("scenario 1: X healthy", false, 0)
	run("scenario 2: X congested and lossy", true, 0.08)
}

func run(title string, congested bool, lossRate float64) {
	fmt.Printf("\n=== %s ===\n", title)
	traceCfg := vpm.TraceConfig{
		Seed:       11,
		DurationNS: int64(1e9),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}

	path := vpm.Fig1Path(23)
	xi := path.DomainIndex("X")
	if congested {
		queue, err := vpm.NewCongestionQueue(vpm.BurstyUDPScenario(9))
		if err != nil {
			log.Fatal(err)
		}
		path.Domains[xi].Delay = queue
	}
	if lossRate > 0 {
		loss, err := vpm.GilbertElliottLoss(lossRate, 8, 31)
		if err != nil {
			log.Fatal(err)
		}
		path.Domains[xi].Loss = loss
	}

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

	v := dep.NewVerifier(key)

	// First: are X's receipts even trustworthy? Check its links.
	for _, lv := range v.VerifyAllLinks() {
		if !lv.Consistent() {
			fmt.Printf("  WARNING: %v — receipts would be discarded\n", lv)
			return
		}
	}
	fmt.Println("  all inter-domain links consistent; receipts accepted")

	// Delay clause: estimate the SLA quantile with confidence bounds.
	rep, err := v.DomainReport("X", []float64{slaQuantile}, slaConfidence)
	if err != nil {
		log.Fatal(err)
	}
	est := rep.DelayEstimates[0]
	fmt.Printf("  p%.0f delay: %.2f ms  (%.0f%% CI [%.2f, %.2f] ms, n=%d)\n",
		slaQuantile*100, est.Point/1e6, slaConfidence*100, est.Lo/1e6, est.Hi/1e6, est.N)
	switch {
	case est.Lo/1e6 > slaDelayMS:
		fmt.Printf("  -> DELAY SLA VIOLATED with confidence: the entire CI exceeds %.1f ms\n", slaDelayMS)
	case est.Hi/1e6 <= slaDelayMS:
		fmt.Printf("  -> delay SLA met with confidence\n")
	default:
		fmt.Printf("  -> inconclusive at this sample size (CI straddles the bound)\n")
	}

	// Loss clause: aggregate counts are exact, no confidence needed.
	fmt.Printf("  loss: %.3f%% measured over %d joined aggregates\n",
		rep.Loss.Rate()*100, len(rep.Loss.Pairs))
	if rep.Loss.Rate()*100 > slaLossPct {
		fmt.Printf("  -> LOSS SLA VIOLATED (> %.1f%%)\n", slaLossPct)
	} else {
		fmt.Printf("  -> loss SLA met\n")
	}

	// Cross-check against simulation ground truth (a real customer
	// cannot see this; it is here to show the verdicts are earned).
	t, _ := truth.DomainByName("X")
	fmt.Printf("  [ground truth: loss %.3f%%]\n", t.LossRate()*100)
}
