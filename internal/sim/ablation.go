package sim

import (
	"fmt"

	"github.com/muerp/quantumnet/internal/topology"
)

// This file implements the ablation studies DESIGN.md calls out: each one
// isolates a design choice of an algorithm (or of our baseline
// reconstruction) and measures what it is worth on the paper's default
// workload.

// arm is one column of an ablation: the column name it is reported under
// and the registered scheme scored there.
type arm struct {
	column string
	scheme string
}

// compareSchemes scores every arm's scheme on the same cfg.Networks
// networks through RunPoint, so each tree is validated and only the schemes
// that declare ConsumesRNG draw from the per-network stream, in arm order.
// The result is reported under the arms' column names.
func compareSchemes(cfg Config, figure, label, title string, arms []arm) (Series, error) {
	cfg.Algorithms = make([]string, len(arms))
	for i, a := range arms {
		cfg.Algorithms[i] = a.scheme
	}
	point, err := RunPoint(label, 0, cfg)
	if err != nil {
		return Series{}, err
	}
	point.Summary = relabel(point.Summary, arms)
	point.Work = relabel(point.Work, arms)
	for i := range point.Trials {
		tr := &point.Trials[i]
		tr.Rates = relabel(tr.Rates, arms)
		tr.Failures = relabel(tr.Failures, arms)
		tr.Work = relabel(tr.Work, arms)
	}
	return Series{Figure: figure, Title: title, XLabel: "ablation", Points: []PointResult{point}}, nil
}

// relabel re-keys a per-scheme map by the arms' column names.
func relabel[V any](m map[string]V, arms []arm) map[string]V {
	out := make(map[string]V, len(m))
	for _, a := range arms {
		if v, ok := m[a.scheme]; ok {
			out[a.column] = v
		}
	}
	return out
}

// AblationReplayOrder compares Algorithm 3's phase-1 replay orders
// (descending = the paper's greedy rule, ascending = adversarial, random).
// The greedy rule should dominate, quantifying the "retain the channel with
// the maximum entanglement rate" decision.
func AblationReplayOrder(cfg Config) (Series, error) {
	return compareSchemes(cfg, "ablation-replay", "replay-order",
		"Algorithm 3 phase-1 replay order (paper rule = descending)",
		[]arm{{"descending", "alg3"}, {"ascending", "alg3-ascending"}, {"random", "alg3-random"}})
}

// AblationPrimStart compares Algorithm 4's random starting user against the
// best over all starts, bounding the value a smarter start could add.
func AblationPrimStart(cfg Config) (Series, error) {
	return compareSchemes(cfg, "ablation-prim-start", "prim-start",
		"Algorithm 4 starting user: paper's random pick vs best of all starts",
		[]arm{{"random-start", "alg4"}, {"best-start", "alg4-beststart"}})
}

// AblationNFusionHub compares our charitable best-hub N-FUSION against
// pinning the hub to the first user, bounding how much the reconstruction
// choice flatters the baseline.
func AblationNFusionHub(cfg Config) (Series, error) {
	return compareSchemes(cfg, "ablation-nfusion-hub", "nfusion-hub",
		"N-FUSION hub selection: best user vs first user",
		[]arm{{"best-hub", "nfusion"}, {"first-hub", "nfusion-firsthub"}})
}

// AblationWaxmanAlpha sweeps the Waxman locality parameter, showing how the
// generator's distance bias (not part of the paper's sweep) moves absolute
// rates: larger alpha = longer fibers = lower rates across the board.
func AblationWaxmanAlpha(cfg Config, alphas []float64) (Series, error) {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 0.2, 0.4, 0.8}
	}
	s := Series{
		Figure: "ablation-waxman-alpha",
		Title:  "Waxman locality parameter vs entanglement rate",
		XLabel: "waxman alpha",
	}
	for _, a := range alphas {
		c := cfg
		c.Topology.WaxmanAlpha = a
		c.Topology.Model = topology.Waxman
		point, err := RunPoint(fmt.Sprintf("alpha=%g", a), a, c)
		if err != nil {
			return Series{}, fmt.Errorf("waxman alpha %g: %w", a, err)
		}
		s.Points = append(s.Points, point)
	}
	return s, nil
}

// AllAblations runs every ablation study.
func AllAblations(cfg Config) ([]Series, error) {
	type gen struct {
		name string
		run  func() (Series, error)
	}
	gens := []gen{
		{"replay", func() (Series, error) { return AblationReplayOrder(cfg) }},
		{"prim-start", func() (Series, error) { return AblationPrimStart(cfg) }},
		{"nfusion-hub", func() (Series, error) { return AblationNFusionHub(cfg) }},
		{"waxman-alpha", func() (Series, error) { return AblationWaxmanAlpha(cfg, nil) }},
	}
	out := make([]Series, 0, len(gens))
	for _, g := range gens {
		s, err := g.run()
		if err != nil {
			return nil, fmt.Errorf("sim: ablation %s: %w", g.name, err)
		}
		out = append(out, s)
	}
	return out, nil
}
