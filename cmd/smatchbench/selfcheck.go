package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
)

// selfcheck measures the benchmark's own noise the way the pipeline
// does: two sets of n full runs of the same binary, one after the
// other, each run with another seed. For every end-to-end metric it
// prints the two medians, their relative difference and each set's
// quartile spread as a Markdown table, and applies the pipeline's
// acceptance rule: it fails if the medians of any metric differ by more
// than that metric's bound, or if a set's spread exceeds it (setup_s is
// exempt from the spread rule there, so it is here).
func (h *harness) selfcheck(ctx context.Context, selected []workload, n int) error {
	type sample map[string][]float64 // metric -> one value per run
	sets := [2]map[string]sample{{}, {}}
	seed := h.opts.Seed
	for set := range sets {
		for _, w := range selected {
			sets[set][w.Name] = sample{}
		}
		for i := 0; i < n; i++ {
			h.opts.Seed = seed
			seed++
			for _, w := range selected {
				rec, err := h.runWorkload(ctx, w)
				if err != nil {
					return err
				}
				if !rec.Correct {
					printRecord(os.Stdout, rec)
					return fmt.Errorf("selfcheck: %s run with seed %d failed", w.Name, h.opts.Seed)
				}
				for k, m := range rec.EndToEnd {
					sets[set][w.Name][k] = append(sets[set][w.Name][k], m.Value)
				}
				fmt.Fprintf(os.Stderr, "selfcheck: set %d run %d/%d %s done (round spread %.1f%%)\n",
					set+1, i+1, n, w.Name, (slices.Max(rec.RoundWallS)/slices.Min(rec.RoundWallS)-1)*100)
			}
		}
	}

	fmt.Printf("| workload | metric | unit | bound | median A | median B | diff | spread A | spread B |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	var over []string
	for _, w := range selected {
		for _, def := range endToEnd {
			a, b := sets[0][w.Name][def.Name], sets[1][w.Name][def.Name]
			ma, mb := median(a), median(b)
			diff := math.Abs(mb-ma) / ma
			sa, sb := quartileSpread(a), quartileSpread(b)
			fmt.Printf("| %s | %s | %s | %.0f%% | %.4f | %.4f | %.1f%% | %.1f%% | %.1f%% |\n",
				w.Name, def.Name, def.Unit, def.Bound*100, ma, mb, diff*100, sa*100, sb*100)
			if diff > def.Bound {
				over = append(over, fmt.Sprintf("%s %s: medians %.4f and %.4f differ by %.1f%%, bound %.0f%%",
					w.Name, def.Name, ma, mb, diff*100, def.Bound*100))
			}
			if def.Name != "setup_s" && max(sa, sb) > def.Bound {
				over = append(over, fmt.Sprintf("%s %s: quartile spreads %.1f%% and %.1f%%, bound %.0f%%",
					w.Name, def.Name, sa*100, sb*100, def.Bound*100))
			}
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("selfcheck: two sets of runs of the same code do not hold the bounds:\n  %s", strings.Join(over, "\n  "))
	}
	return nil
}
