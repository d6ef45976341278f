// Tunability: the paper's third design requirement (§2.2), swept.
//
// Each domain chooses its own sampling and aggregation rates — its
// cost/quality trade-off — without any inter-domain coordination.
// This example sweeps domain X's sampling rate and prints, side by
// side, what X pays (receipt bytes, temp-buffer footprint) and what
// everyone gets (delay-estimation accuracy). It then shows the
// "different neighbors, different budgets" case: X at 1%, N at 0.1%,
// still mutually consistent thanks to the subset property.
//
// Run with: go run ./examples/tunability
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"vpm"
)

func main() {
	fmt.Println("sweep: X's sampling rate vs cost and estimation quality")
	fmt.Println("rate     samples   receiptKB   tempbuf(pkts)   p90 err (ms)")
	for _, rate := range []float64{0.05, 0.01, 0.005, 0.001} {
		run(rate)
	}
	asymmetric()
}

func run(sampleRate float64) {
	traceCfg := vpm.TraceConfig{
		Seed:       61,
		DurationNS: int64(1e9),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	path := vpm.Fig1Path(67)
	queue, err := vpm.NewCongestionQueue(vpm.BurstyUDPScenario(71))
	if err != nil {
		log.Fatal(err)
	}
	path.Domains[path.DomainIndex("X")].Delay = queue

	cfg := vpm.DefaultDeployConfig()
	cfg.PerDomain = map[string]vpm.Tuning{
		"X": {SampleRate: sampleRate, AggRate: cfg.Default.AggRate},
	}
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), cfg)
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
	delays := v.DelaysBetween(4, 5)
	xTruth, _ := truth.DomainByName("X")

	// X's p90 as estimated from receipts vs ground truth.
	var errMS float64 = math.NaN()
	if len(delays) > 0 {
		est, err := vpm.EstimateQuantile(delays, 0.9, 0.95)
		if err == nil {
			errMS = math.Abs(est.Point-trueQuantile(xTruth.TrueDelaysNS, 0.9)) / 1e6
		}
	}
	// X's cost: receipt bytes from its two HOPs, temp-buffer peak.
	cost := dep.Processors[4].ReceiptBytes() + dep.Processors[5].ReceiptBytes()
	mem := dep.Collectors[4].Memory()
	fmt.Printf("%5.2g%%  %8d   %9.1f   %13d   %10.3f\n",
		sampleRate*100, len(delays), float64(cost)/1024,
		mem.TempBufferPeakEntries, errMS)
}

func trueQuantile(xs []float64, q float64) float64 {
	c := append([]float64{}, xs...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(pos)
	if lo+1 >= len(c) {
		return c[len(c)-1]
	}
	frac := pos - float64(lo)
	return c[lo]*(1-frac) + c[lo+1]*frac
}

func asymmetric() {
	fmt.Println("\nasymmetric tuning: X at 1%, N at 0.1% — no false alarms")
	traceCfg := vpm.TraceConfig{
		Seed:       73,
		DurationNS: int64(500e6),
		Paths:      []vpm.TracePathSpec{vpm.DefaultTracePath(100000)},
	}
	pkts, err := vpm.GenerateTrace(traceCfg)
	if err != nil {
		log.Fatal(err)
	}
	key := vpm.PathKey{Src: traceCfg.Paths[0].SrcPrefix, Dst: traceCfg.Paths[0].DstPrefix}
	path := vpm.Fig1Path(79)
	cfg := vpm.DefaultDeployConfig()
	cfg.PerDomain = map[string]vpm.Tuning{
		"X": {SampleRate: 0.01, AggRate: cfg.Default.AggRate},
		"N": {SampleRate: 0.001, AggRate: cfg.Default.AggRate},
	}
	dep, err := vpm.NewDeployment(path, traceCfg.Table(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	runner, err := vpm.NewTopoRunner(path, traceCfg.Table())
	if err != nil {
		log.Fatal(err)
	}
	if _, err := runner.Run(pkts, dep.Observers()); err != nil {
		log.Fatal(err)
	}
	dep.Finalize()
	v := dep.NewVerifier(key)
	for _, lv := range v.VerifyAllLinks() {
		fmt.Printf("  %v\n", lv)
	}
	fmt.Println("  (the X-N link matches fewer samples — N's choice — but stays consistent)")
}
