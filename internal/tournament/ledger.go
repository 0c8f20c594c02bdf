package tournament

import (
	"fmt"
	"sort"
	"strings"
)

// STRATEGY_LEDGER.md regeneration. The ledger is a committed document
// with two kinds of content:
//
//   - generated sections (methodology, rubric, leaderboard, per-axis
//     matrix, per-policy verdicts) rendered deterministically from a
//     Report — regenerating from the same tournament.json reproduces
//     them byte-identically (the CI no-diff check);
//   - one curated section between the findings markers, hand-written
//     narrative ("why it won/lost") that RenderLedger carries over
//     verbatim from the previous ledger text.
//
// Editing anything outside the markers is futile — the next
// regeneration overwrites it. Editing inside the markers is the point.

// Findings markers. Everything between them (exclusive) survives
// regeneration.
const (
	FindingsBegin = "<!-- findings:begin -->"
	FindingsEnd   = "<!-- findings:end -->"
)

// defaultFindings seeds the curated section of a fresh ledger.
const defaultFindings = `_No curated findings yet. Edit this section — it survives regeneration._`

// ExtractFindings returns the curated text between the first begin marker
// of an existing ledger and the first end marker after it, or the default
// placeholder when prev is empty or carries no such pair. An end marker
// before the begin marker (quoted in a finding, left by a bad merge) is
// text like any other.
func ExtractFindings(prev string) string {
	_, rest, ok := strings.Cut(prev, FindingsBegin)
	if !ok {
		return defaultFindings
	}
	body, _, ok := strings.Cut(rest, FindingsEnd)
	if !ok {
		return defaultFindings
	}
	return strings.TrimSpace(body)
}

// RenderLedger renders STRATEGY_LEDGER.md from a report, preserving the
// curated findings section of prev (the current ledger text; pass ""
// for a fresh one). Output is deterministic in the report alone apart
// from that carried-over section.
func RenderLedger(r *Report, prev string) string {
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	w("# Strategy Ledger")
	w("")
	w("Leaderboard of scheduler admission strategies on the D.A.V.I.D.E.")
	w("closed-loop control plane. **Generated by `davide-sim -tournament`** from")
	w("`tournament.json` — do not edit outside the findings markers; regenerate with:")
	w("")
	w("```")
	w("go run ./cmd/davide-sim -tournament -tournament-out tournament.json -ledger STRATEGY_LEDGER.md")
	w("```")
	w("")

	w("## Methodology")
	w("")
	cfg := r.Config
	w("Every policy runs the **same workload on the same machine**: %d jobs", cfg.Jobs)
	w("(1–4 nodes, ~5 min runtimes, 60 s mean interarrival — hot enough to")
	w("oversubscribe the cap) on %d nodes under a %.0f kW cap, %g s control",
		cfg.Nodes, cfg.CapW/1000, cfg.TickS)
	w("ticks, %g Hz telemetry sampling, racks of %d, predictor trained on %d",
		cfg.SampleRate, cfg.RackSize, cfg.TrainJobs)
	w("prior jobs — the E19/E22 reference geometry, so the `fifo` and `power`")
	w("rows reproduce those benchmarks' figures exactly. Seed %d everywhere;", cfg.Seed)
	w("every run is bit-identical on replay (the determinism contract in")
	w("DESIGN.md §12). Power-aware policies run with reactive capping armed,")
	w("power-blind baselines without — each side in its paper configuration.")
	w("")
	w("Axes (%d): `%s` — clean transport, whole-run gateway chaos presets", len(cfg.Axes), strings.Join(cfg.Axes, "`, `"))
	w("(batch size %d), and the registered scenarios (cap trajectories,", cfg.ChaosBatchSamples)
	w("arrival shaping, thermal events, composed chaos).")
	w("")

	w("## Scoring rubric")
	w("")
	w("All metrics are lower-is-better. Per axis, each metric is")
	w("competition-ranked across policies, ranks are normalized to [0, 1], and a")
	w("cell's composite is the weighted sum. A policy's overall composite is the")
	w("mean of its cell composites; rank 1 is best.")
	w("")
	w("| metric | weight | rationale |")
	w("|---|---|---|")
	rationale := map[string]string{
		"max_over_pct":    "worst true overshoot above the cap — the paper's headline contract",
		"cap_violation_s": "seconds of true power above cap — sustained breach, not just peaks",
		"energy_err_pct":  "measured-vs-true energy error — accounting must survive degraded telemetry",
		"mean_wait_s":     "mean job wait — queueing cost of admission conservatism",
		"p95_wait_s":      "tail wait — starvation shows up here before the mean moves",
		"makespan_s":      "total schedule length — throughput",
		"brownout_s":      "seconds in brownout conservatism — time spent distrusting telemetry",
	}
	for _, mw := range r.Weights {
		w("| `%s` | %.2f | %s |", mw.Key, mw.Weight, rationale[mw.Key])
	}
	w("")

	w("## Leaderboard")
	w("")
	w("| rank | policy | composite | axis wins | power-aware | best axis | worst axis |")
	w("|---|---|---|---|---|---|---|")
	for _, st := range r.Standings {
		aware := "no"
		if st.PowerAware {
			aware = "yes"
		}
		w("| %d | `%s` | %.4f | %d/%d | %s | `%s` | `%s` |",
			st.Rank, st.Policy, st.Composite, st.AxisWins, len(cfg.Axes), aware, st.BestAxis, st.WorstAxis)
	}
	w("")
	for _, st := range r.Standings {
		w("- **`%s`** — %s", st.Policy, st.Desc)
	}
	w("")

	w("## Cap overshoot by axis (max-over-%%)")
	w("")
	renderMatrix(&b, r, func(c *Cell) string { return fmt.Sprintf("%.2f", c.MaxOverPct) })
	w("")
	w("## Mean wait by axis (s)")
	w("")
	renderMatrix(&b, r, func(c *Cell) string { return fmt.Sprintf("%.0f", c.MeanWaitS) })
	w("")

	w("## Per-policy verdicts")
	w("")
	for _, st := range r.Standings {
		w("### %d. `%s`", st.Rank, st.Policy)
		w("")
		w("%s", verdict(r, st))
		w("")
	}

	w("## Findings")
	w("")
	w("%s", FindingsBegin)
	w("%s", ExtractFindings(prev))
	w("%s", FindingsEnd)

	return b.String()
}

// renderMatrix writes a policies × axes metric table, policies in
// leaderboard order, axes in report order.
func renderMatrix(b *strings.Builder, r *Report, format func(*Cell) string) {
	fmt.Fprintf(b, "| policy | %s |\n", strings.Join(quoteAll(r.Config.Axes), " | "))
	fmt.Fprintf(b, "|---|%s\n", strings.Repeat("---|", len(r.Config.Axes)))
	for _, st := range r.Standings {
		row := make([]string, 0, len(r.Config.Axes)+1)
		row = append(row, "`"+st.Policy+"`")
		for _, axis := range r.Config.Axes {
			c := r.Cell(st.Policy, axis)
			if c == nil {
				row = append(row, "—")
				continue
			}
			cell := format(c)
			if c.Rank == 1 {
				cell = "**" + cell + "**" // axis winner on the overall composite
			}
			row = append(row, cell)
		}
		fmt.Fprintf(b, "| %s |\n", strings.Join(row, " | "))
	}
}

// quoteAll wraps each string in backticks.
func quoteAll(ss []string) []string {
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = "`" + s + "`"
	}
	return out
}

// verdict writes one policy's generated summary: where it placed, its
// extremes, and its cap/wait aggregates across axes.
func verdict(r *Report, st Standing) string {
	var over, wait []float64
	brownout := 0.0
	wins := make([]string, 0, 4)
	for _, axis := range r.Config.Axes {
		c := r.Cell(st.Policy, axis)
		if c == nil {
			continue
		}
		over = append(over, c.MaxOverPct)
		wait = append(wait, c.MeanWaitS)
		brownout += c.BrownoutS
		if c.Rank == 1 {
			wins = append(wins, axis)
		}
	}
	worstOver, meanWait := 0.0, 0.0
	for _, v := range over {
		if v > worstOver {
			worstOver = v
		}
	}
	for _, v := range wait {
		meanWait += v
	}
	if len(wait) > 0 {
		meanWait /= float64(len(wait))
	}
	sort.Strings(wins)

	s := fmt.Sprintf("%s. Composite %.4f; worst cap overshoot %.2f%% (any axis); mean wait %.0f s averaged over axes",
		st.Desc, st.Composite, worstOver, meanWait)
	if brownout > 0 {
		s += fmt.Sprintf("; %.0f s total in brownout", brownout)
	}
	if len(wins) > 0 {
		s += fmt.Sprintf(". Won: `%s`", strings.Join(wins, "`, `"))
	}
	s += fmt.Sprintf(". Best on `%s`, weakest on `%s`.", st.BestAxis, st.WorstAxis)
	return s
}
