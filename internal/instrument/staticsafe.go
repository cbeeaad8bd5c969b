package instrument

// Static safety diagnostics: the bridge between mir.AnalyzeSafety's
// interprocedural abstract interpretation and `effsan -warn-static`.
// The analysis classifies every freshly inserted check site; the sites
// it proves report an error on every execution that reaches them
// (STATIC-UNSAFE) become compile-time diagnostics. Nothing is deleted:
// Instrument never runs the analysis, so the instrumented program and
// its runtime reports do not depend on it.

import (
	"sort"

	"repro/internal/mir"
)

// StaticDiag is one compile-time diagnostic for a STATIC-UNSAFE check
// site: a check the abstract interpretation proves reports an error on
// every execution that reaches it.
type StaticDiag struct {
	Func string // containing function
	Site string // source location (file:line from the frontend)
	Kind string // "type", "bounds", or "escape"
	// SiteID is the runtime check-site ID of the same check in
	// Instrument(p, opts) (type checks only; 0 when the check carries no
	// ID or the dynamic elision pass removed it).
	SiteID int64
	Reason string // the analysis' justification, human-readable
}

// StaticDiagnostics runs the static safety analysis over p with the
// checks of opts inserted, exactly as the Fig. 3 schema places them
// before elision, rooted at opts.StaticEntry. It returns one diagnostic
// per STATIC-UNSAFE site in (function, block, instruction) order. The
// analysis needs the full bounds-register discipline, so it returns nil
// unless the variant is Full or BoundsOnly and NoOptimize is off.
func StaticDiagnostics(p *mir.Program, opts Options) []StaticDiag {
	if opts.NoOptimize || (opts.Variant != Full && opts.Variant != BoundsOnly) {
		return nil
	}
	var st Stats
	ins := insertChecks(p, opts, &st)
	var roots []string
	if opts.StaticEntry != "" {
		roots = []string{opts.StaticEntry}
	}
	res := mir.AnalyzeSafety(ins, roots)
	names := make([]string, 0, len(res.Verdicts))
	for name := range res.Verdicts {
		names = append(names, name)
	}
	sort.Strings(names)
	var diags []StaticDiag
	for _, name := range names {
		f := ins.Funcs[name]
		for _, v := range res.Verdicts[name] {
			if v.Verdict != mir.VerdictUnsafe {
				continue
			}
			in := &f.Blocks[v.Block].Instrs[v.Index]
			kind := "type"
			switch in.Op {
			case mir.OpBoundsCheck:
				kind = "bounds"
			case mir.OpEscapeCheck:
				kind = "escape"
			}
			diags = append(diags, StaticDiag{Func: name, Site: in.Site, Kind: kind, Reason: v.Reason})
		}
	}
	if len(diags) > 0 {
		out, _ := Instrument(p, opts)
		fillStaticDiagSiteIDs(out, diags)
	}
	return diags
}

// fillStaticDiagSiteIDs resolves the runtime site IDs of the UNSAFE
// type-check diagnostics from the instrumented program, whose surviving
// checks assignSiteIDs has numbered (matching by function and source
// site; a diagnosed check the dynamic elision pass removed keeps
// SiteID 0).
func fillStaticDiagSiteIDs(p *mir.Program, diags []StaticDiag) {
	ids := map[[2]string]int64{}
	for name, f := range p.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				ins := &b.Instrs[i]
				if ins.Op == mir.OpTypeCheck && ins.Aux > 0 {
					k := [2]string{name, ins.Site}
					if _, ok := ids[k]; !ok {
						ids[k] = ins.Aux
					}
				}
			}
		}
	}
	for i := range diags {
		d := &diags[i]
		if d.Kind == "type" {
			d.SiteID = ids[[2]string{d.Func, d.Site}]
		}
	}
}
