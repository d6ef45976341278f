// Command vpm-sim runs one scenario on the paper's Figure 1 topology
// (S -> L -> X -> N -> D) and prints what a verifier would conclude:
// each domain's actual vs receipt-estimated loss and delay, and the
// consistency verdict for every inter-domain link.
//
// Usage:
//
//	vpm-sim [-loss-x 0.25] [-congest-x] [-sample 0.01] [-agg 1e-5]
//	        [-lie none|blame-shift|shave-delays] [-duration 1s]
//	        [-rate 100000] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"vpm/internal/core"
	"vpm/internal/delaymodel"
	"vpm/internal/lossmodel"
	"vpm/internal/netsim"
	"vpm/internal/packet"
	"vpm/internal/quantile"
	"vpm/internal/receipt"
	"vpm/internal/stats"
	"vpm/internal/trace"
)

func main() {
	var (
		lossX    = flag.Float64("loss-x", 0, "Gilbert-Elliott loss rate inside domain X")
		congestX = flag.Bool("congest-x", false, "congest X with the bursty-UDP bottleneck")
		sample   = flag.Float64("sample", 0.01, "every domain's sampling rate")
		agg      = flag.Float64("agg", 1e-5, "every domain's aggregation (cut) rate")
		lie      = flag.String("lie", "none", "X's strategy: none, blame-shift, shave-delays")
		duration = flag.Duration("duration", time.Second, "trace duration")
		rate     = flag.Float64("rate", 100000, "packet rate (packets/second)")
		seed     = flag.Uint64("seed", 1, "seed")
	)
	flag.Parse()

	tc := trace.Config{
		Seed:       *seed,
		DurationNS: duration.Nanoseconds(),
		Paths:      []trace.PathSpec{trace.DefaultPath(*rate)},
	}
	pkts, err := trace.Generate(tc)
	check(err)
	key := packet.PathKey{Src: tc.Paths[0].SrcPrefix, Dst: tc.Paths[0].DstPrefix}

	path := netsim.Fig1Path(*seed + 100)
	xi := path.DomainIndex("X")
	if *congestX {
		q, err := delaymodel.New(delaymodel.BurstyUDPScenario(*seed + 7))
		check(err)
		path.Domains[xi].Delay = q
	}
	if *lossX > 0 {
		ge, err := lossmodel.FromTargetLoss(*lossX, 8, stats.NewRNG(*seed+13))
		check(err)
		path.Domains[xi].Loss = ge
	}

	dc := core.DefaultDeployConfig()
	dc.Default = core.Tuning{SampleRate: *sample, AggRate: *agg}
	dep, err := core.NewDeployment(path, tc.Table(), dc)
	check(err)

	runner, err := netsim.NewRunner(path)
	check(err)
	res, err := runner.Run(pkts, dep.Observers())
	check(err)
	dep.Finalize()

	fmt.Printf("sent %d packets, delivered %d end to end\n\n", res.Sent, res.Delivered)

	v := buildVerifier(dep, path, key, *lie)

	fmt.Println("Per-domain performance (actual vs receipt-estimated):")
	for _, name := range []string{"L", "X", "N"} {
		truth, _ := res.DomainByName(name)
		rep, err := v.DomainReport(name, quantile.DefaultQuantiles, 0.95)
		if err != nil {
			fmt.Printf("  %s: %v\n", name, err)
			continue
		}
		fmt.Printf("  %s: loss actual %.3f%%  estimated %.3f%%  (over %d joined aggregates)\n",
			name, truth.LossRate()*100, rep.Loss.Rate()*100, len(rep.Loss.Pairs))
		if len(rep.DelayEstimates) > 0 {
			trueP90 := stats.Quantile(truth.TrueDelaysNS, 0.9) / 1e6
			fmt.Printf("      p90 delay actual %.3fms  estimated %s  (n=%d)\n",
				trueP90, fmtMS(rep.DelayEstimates[1].Point), rep.DelaySamples)
		}
	}

	fmt.Println("\nLink consistency verdicts:")
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
	if *lie != "none" {
		fmt.Printf("\n(domain X ran the %q strategy — check the X-N link verdict above)\n", *lie)
	}
}

// buildVerifier ingests receipts, substituting X's egress receipts
// with lies when requested.
func buildVerifier(dep *core.Deployment, path *netsim.Topology, key packet.PathKey, lie string) *core.Verifier {
	if lie == "none" {
		return dep.NewVerifier(key)
	}
	v := core.NewVerifierFor(dep.Layout(), key)
	v.SetConfig(dep.VerifierConfig())
	var xInS, xEgS receipt.SampleReceipt
	var xInA []receipt.AggReceipt
	for hop, proc := range dep.Processors {
		isXEgress := hop == 5
		for _, s := range proc.CombinedSamples() {
			if s.Path.Key != key {
				continue
			}
			switch {
			case hop == 4:
				xInS = s
				v.AddSampleReceipt(hop, s)
			case isXEgress:
				xEgS = s // held back; replaced below
			default:
				v.AddSampleReceipt(hop, s)
			}
		}
		var aggs []receipt.AggReceipt
		for _, a := range proc.Aggs {
			if a.Path.Key == key {
				aggs = append(aggs, a)
			}
		}
		if hop == 4 {
			xInA = aggs
		}
		if !isXEgress {
			v.AddAggReceipts(hop, aggs)
		} else if lie == "shave-delays" {
			v.AddAggReceipts(hop, aggs) // aggregate counts stay honest
		}
	}
	egressPath := path.PathIDFor(key, 5) // X egress
	switch lie {
	case "blame-shift":
		fs, fa := core.FabricateDelivery(xInS, xInA, egressPath, 500_000)
		v.AddSampleReceipt(5, fs)
		v.AddAggReceipts(5, fa)
	case "shave-delays":
		v.AddSampleReceipt(5, core.ShaveDelays(xInS, xEgS, 0.05))
	default:
		fmt.Fprintf(os.Stderr, "vpm-sim: unknown lie %q\n", lie)
		os.Exit(1)
	}
	return v
}

func fmtMS(ns float64) string { return fmt.Sprintf("%.3fms", ns/1e6) }

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpm-sim:", err)
		os.Exit(1)
	}
}
