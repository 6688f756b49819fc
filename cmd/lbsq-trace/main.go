// Command lbsq-trace summarizes a JSONL simulation trace produced by
// lbsq-sim -trace: outcome shares, channel-cost statistics, and an ASCII
// latency histogram over the broadcast-resolved queries.
//
// Usage:
//
//	lbsq-sim -set la -trace run.jsonl
//	lbsq-trace run.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"lbsq/internal/trace"
)

func main() {
	bins := flag.Int("bins", 10, "latency histogram bins")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: lbsq-trace [-bins n] <trace.jsonl>")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(events) == 0 {
		fmt.Println("empty trace")
		return
	}

	s := trace.Summarize(events)
	fmt.Printf("%d events, %.1f mean reachable peers\n", s.Events, s.MeanPeers)
	var outcomes []string
	for o := range s.ByOutcome {
		outcomes = append(outcomes, o)
	}
	slices.Sort(outcomes)
	for _, o := range outcomes {
		fmt.Printf("  %-12s %6d (%.1f%%)\n",
			o, s.ByOutcome[o], 100*float64(s.ByOutcome[o])/float64(s.Events))
	}
	fmt.Printf("total packets downloaded: %d\n", s.TotalPackets)

	// Latency histogram over broadcast-resolved events.
	var lats []int64
	for _, e := range events {
		if e.Outcome == "broadcast" {
			lats = append(lats, e.LatencySlots)
		}
	}
	if len(lats) == 0 {
		fmt.Println("no broadcast-resolved events — every query answered by peers")
		return
	}
	slices.Sort(lats)
	fmt.Printf("\nbroadcast latency (slots): min=%d p50=%d p90=%d max=%d mean=%.1f\n",
		lats[0], percentile(lats, 50), percentile(lats, 90),
		lats[len(lats)-1], s.MeanLatency)

	n := *bins
	if n < 1 {
		n = 10
	}
	lo, hi := lats[0], lats[len(lats)-1]
	if hi == lo {
		hi = lo + 1
	}
	counts := make([]int, n)
	for _, l := range lats {
		b := int(float64(l-lo) / float64(hi-lo+1) * float64(n))
		if b >= n {
			b = n - 1
		}
		counts[b]++
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	fmt.Println()
	for b, c := range counts {
		binLo := lo + int64(float64(b)/float64(n)*float64(hi-lo+1))
		binHi := lo + int64(float64(b+1)/float64(n)*float64(hi-lo+1))
		bar := ""
		if maxCount > 0 {
			for i := 0; i < c*50/maxCount; i++ {
				bar += "#"
			}
		}
		fmt.Printf("  [%5d, %5d) %6d %s\n", binLo, binHi, c, bar)
	}
}

// percentile returns the p-th percentile of sorted values.
func percentile(sorted []int64, p int) int64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted) - 1) * p / 100
	return sorted[idx]
}
