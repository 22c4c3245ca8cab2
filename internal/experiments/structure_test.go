package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// Structural regression tests: each experiment's output must keep the
// columns the paper's corresponding table/figure reports. (Values are
// timing-dependent; the structure is not.)
func TestExperimentOutputStructure(t *testing.T) {
	cases := []struct {
		name    string
		run     Runner
		markers []string
	}{
		{"fig7", Fig7, []string{"GQL", "CFL", "CECI", "DPiso", "(a) by dataset", "(b) by query size", "(c) dense vs sparse"}},
		{"fig8", Fig8, []string{"LDF", "STEADY", "(a) by dataset"}},
		{"fig9", Fig9, []string{"QSI", "GQL", "CFL", "2PP", "speedup"}},
		{"fig10", Fig10, []string{"Hybrid", "QFilter"}},
		{"fig11", Fig11, []string{"QSI", "GQL", "CFL", "CECI", "DPiso", "RI", "VF2PP"}},
		{"fig12", Fig12, []string{"standard deviation"}},
		{"fig13", Fig13, []string{"short", "median", "long", "unsolved"}},
		{"table5", Table5, []string{"wo/fs", "w/fs", "Fail-All"}},
		{"fig14", Fig14, []string{"min", "median", "max", "GQL", "RI"}},
		{"table6", Table6, []string{"mean", "std", "max", ">10"}},
		{"fig15", Fig15, []string{"wo/fs", "w/fs", "DP-iso"}},
		{"fig16", Fig16, []string{"GQLfs", "RIfs", "O-CECI", "O-DP", "O-RI", "O-2PP", "GLW"}},
		{"ablation", Ablation, []string{"rounds", "radius", "symmetry", "baseline lineage", "Ullmann", "VF2", "parallel"}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			env := tinyEnv(&buf)
			if err := c.run(env); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			out := buf.String()
			for _, m := range c.markers {
				if !strings.Contains(out, m) {
					t.Errorf("%s output missing %q:\n%s", c.name, m, out)
				}
			}
		})
	}
}
