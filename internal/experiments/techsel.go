package experiments

import (
	"fmt"
	"io"

	"soctap/internal/core"
	"soctap/internal/report"
	"soctap/internal/soc"
)

// TechSelRow is one (design, width) outcome of the technique-selection
// extension experiment.
type TechSelRow struct {
	Design    string
	WTAM      int
	TimePlain int64 // selective encoding + direct only
	TimeSel   int64 // with dictionary coding in the mix
	Direct    int   // cores per codec in the selected plan
	SelEnc    int
	Dict      int
}

// TechSelResult is the extension experiment: SOC-level planning with
// per-core compression-technique selection (DESIGN.md §6; the authors'
// ATS'08 follow-up direction).
type TechSelResult struct {
	Rows []TechSelRow
}

// TechSel compares SOC plans with and without the dictionary codec in
// the per-core choice set.
func (e *Env) TechSel() (*TechSelResult, error) {
	defer e.begin("techsel").End()
	r := &TechSelResult{}
	designs := []*soc.SOC{soc.D695(), soc.MustSystem("System1")}
	for _, design := range designs {
		for _, wtam := range []int{16, 32} {
			plain, err := e.optimize(design, wtam, core.Options{Style: core.StyleTDCPerCore,
				Tables: core.TableOptions{MaxWidth: tableWidth}})
			if err != nil {
				return nil, err
			}
			sel, err := e.optimize(design, wtam, core.Options{Style: core.StyleTDCPerCore,
				Tables: core.TableOptions{MaxWidth: tableWidth}, EnableDict: true, DictSizes: []int{64, 256}})
			if err != nil {
				return nil, err
			}
			row := TechSelRow{
				Design: design.Name, WTAM: wtam,
				TimePlain: plain.TestTime, TimeSel: sel.TestTime,
			}
			for _, ch := range sel.Choices {
				switch ch.Config.Codec {
				case core.CodecSelEnc:
					row.SelEnc++
				case core.CodecDict:
					row.Dict++
				default:
					row.Direct++
				}
			}
			r.Rows = append(r.Rows, row)
		}
	}
	return r, nil
}

// Render prints the extension table.
func (r *TechSelResult) Render(w io.Writer) error {
	tab := report.NewTable("Extension: per-core compression-technique selection (ATS'08 direction)",
		"design", "W_TAM", "tau selenc-only", "tau with-dict", "gain", "direct/selenc/dict cores")
	for _, row := range r.Rows {
		tab.Add(row.Design, fmt.Sprint(row.WTAM),
			fmt.Sprint(row.TimePlain), fmt.Sprint(row.TimeSel),
			report.Ratio(row.TimePlain, row.TimeSel),
			fmt.Sprintf("%d/%d/%d", row.Direct, row.SelEnc, row.Dict))
	}
	if err := tab.Render(w); err != nil {
		return err
	}
	_, err := fmt.Fprintln(w, "(adding the dictionary codec never hurts; it wins on cores whose slices repeat)")
	return err
}
