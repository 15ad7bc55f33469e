package experiments

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/paperdata"
	"repro/internal/report"
)

// Print regenerates block — a table ID, "figure4", "extensions" or "all"
// for every one — and writes it to w in format, blocks separated by a
// blank line: the body cmd/tables prints. The tables render text, md and
// csv; Figure 4 and the extension experiments, and so "all", render text
// only, and a pair that cannot render fails before any simulation
// starts. A cancelled batch still prints its partial tables, then stops
// before the figures, which cannot salvage one. Any omitted table row
// fails the printout with a one-line summary, so a partial regeneration
// never passes for a clean one.
func Print(w io.Writer, block, format string, o Options) error {
	tables := TableIDs()
	blocks := append(TableIDs(), "figure4", "extensions", "all")
	switch {
	case !slices.Contains(blocks, block):
		return fmt.Errorf("experiments: unknown block %q (want %s)", block, strings.Join(blocks, ", "))
	case format != "text" && format != "md" && format != "csv":
		return fmt.Errorf("experiments: unknown format %q (want text, md or csv)", format)
	case format != "text" && !slices.Contains(tables, block):
		return fmt.Errorf("experiments: %s renders only as text, not %s (md and csv are for single tables)", block, format)
	}
	if block != "all" {
		tables = slices.DeleteFunc(tables, func(id string) bool { return id != block })
	}
	tabs, err := reproduce(tables, o)
	if err != nil {
		return err
	}
	sep := ""
	emit := func(s string) {
		fmt.Fprint(w, sep, s)
		sep = "\n"
	}
	omitted, first := 0, ""
	for _, t := range tabs {
		switch format {
		case "md":
			emit(t.RenderMarkdown())
		case "csv":
			emit(t.RenderCSV())
		default:
			errs := paperdata.PaperAvgErrors[t.ID]
			emit(fmt.Sprintf("%s\n(the paper's own simulator: radio %.1f%%, uC %.1f%% avg error vs real)\n",
				t.Render(), errs[0], errs[1]))
		}
		for _, r := range t.Rows {
			if r.Omitted != "" && first == "" {
				first = fmt.Sprintf("%s/%s: %s", t.ID, r.Label, r.Omitted)
			}
		}
		omitted += t.OmittedRows()
	}
	var errs []error
	if omitted > 0 {
		summary := fmt.Sprintf("%d row(s) omitted (first: %s)", omitted, first)
		if o.ctx().Err() != nil {
			return errors.New("interrupted: partial tables, " + summary)
		}
		errs = append(errs, errors.New(summary))
	}
	if block == "all" || block == "figure4" {
		var bars []report.Bar
		if block == "all" {
			bars, err = figure4(tabs[0], tabs[2])
		} else {
			bars, err = Figure4(o)
		}
		if err != nil {
			errs = append(errs, err)
		} else {
			f := paperdata.Figure4()
			emit(fmt.Sprintf("%s\n(paper, real: streaming %.1f+%.1f mJ, rpeak %.1f+%.1f mJ -> 65%% saving)\n",
				report.RenderFigure4(bars), f.StreamingRadioRealMJ, f.StreamingMCURealMJ,
				f.RpeakRadioRealMJ, f.RpeakMCURealMJ))
		}
	}
	if block == "all" || block == "extensions" {
		if ext, err := Extensions(o); err != nil {
			errs = append(errs, err)
		} else {
			emit(ext.Render())
		}
	}
	return errors.Join(errs...)
}
