// Package lint is the project-specific static-analysis suite behind
// cmd/amacvet: four analyzers that enforce, at compile time, the invariants
// every runtime gate in this repo (golden traces, shards-N diffs, warm-vs-cold
// equality, alloc ceilings) can only spot-check — determinism of iteration
// order, seeded randomness, allocation-free hot paths, and boxing only at
// Payload.Value.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, per-position diagnostics) but is self-contained on the
// standard library: the build environment pins no external modules, so the
// loader drives `go list -json` plus go/types directly instead of depending
// on x/tools. If the module ever grows an x/tools dependency the analyzers
// port over mechanically — each Run takes the same (files, types.Info,
// types.Package) triple a real analysis.Pass carries.
//
// # Suppression
//
// Every analyzer honors a line-scoped escape hatch:
//
//	//lint:<analyzer> <reason>
//
// placed either at the end of the offending line or alone on the line
// directly above it. The reason is mandatory; a bare //lint:<analyzer> is
// itself reported, so every silenced diagnostic carries its justification in
// the source. Hot-path functions opt in to the hotalloc analyzer with an
//
//	//amac:hotpath
//
// line in their doc comment (see hotalloc.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named static check. Run inspects a single type-checked
// package through the Pass and reports diagnostics; analyzers are stateless
// across packages.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:<name>
	// suppression comments. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description `amacvet -list` prints.
	Doc string
	// Run performs the check. It reports findings via pass.Reportf and
	// returns an error only for internal failures (which abort the whole
	// amacvet run, like a crashed vet pass would).
	Run func(pass *Pass) error
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Analyzers is the amacvet suite in the order diagnostics are attributed.
var Analyzers = []*Analyzer{
	MapIter,
	WallClock,
	HotAlloc,
	PayloadBox,
}

// AnalyzerNames returns the suite's names, in suite order.
func AnalyzerNames() []string {
	names := make([]string, len(Analyzers))
	for i, a := range Analyzers {
		names[i] = a.Name
	}
	return names
}

// RunAnalyzers runs each analyzer over each package and returns the
// surviving diagnostics sorted by position: suppressed findings are dropped,
// and malformed suppressions (no reason) are themselves reported. Packages
// are expected to be the analysis roots (loaded with type info), not the
// dependency closure.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		if pkg.Types == nil || pkg.Info == nil {
			return nil, fmt.Errorf("lint: package %s loaded without type info", pkg.Path)
		}
		sup := collectSuppressions(pkg)
		var raw []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				diags:     &raw,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Path, err)
			}
		}
		out = append(out, sup.filter(raw)...)
		out = append(out, sup.malformed...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return out, nil
}

// suppressions indexes //lint:<name> comments by (file, line, analyzer).
type suppressions struct {
	// byLine maps filename -> line -> analyzer names suppressed on that line.
	byLine    map[string]map[int]map[string]bool
	malformed []Diagnostic
}

const suppressPrefix = "lint:"

// collectSuppressions scans a package's comments. A suppression covers the
// line it sits on; a comment alone on its line also covers the next line, so
// both trailing and standalone-above placements work.
func collectSuppressions(pkg *Package) *suppressions {
	s := &suppressions{byLine: make(map[string]map[int]map[string]bool)}
	known := make(map[string]bool, len(Analyzers))
	for _, a := range Analyzers {
		known[a.Name] = true
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				if !strings.HasPrefix(text, suppressPrefix) {
					continue
				}
				rest := strings.TrimPrefix(text, suppressPrefix)
				name, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				if !known[name] {
					// Unknown analyzer names are reported rather than
					// silently ignored: a typo'd suppression must not look
					// like it worked.
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "amacvet",
						Message:  fmt.Sprintf("//lint:%s does not name an amacvet analyzer (have %s)", name, strings.Join(AnalyzerNames(), ", ")),
					})
					continue
				}
				if strings.TrimSpace(reason) == "" {
					s.malformed = append(s.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "amacvet",
						Message:  fmt.Sprintf("//lint:%s suppression requires a reason", name),
					})
					continue
				}
				lines := s.byLine[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					s.byLine[pos.Filename] = lines
				}
				mark := func(line int) {
					if lines[line] == nil {
						lines[line] = make(map[string]bool)
					}
					lines[line][name] = true
				}
				mark(pos.Line)
				if standsAlone(pkg.Fset, f, c) {
					mark(pos.Line + 1)
				}
			}
		}
	}
	return s
}

// standsAlone reports whether comment c is the first token on its line, i.e.
// not trailing any code.
func standsAlone(fset *token.FileSet, f *ast.File, c *ast.Comment) bool {
	pos := fset.Position(c.Pos())
	tf := fset.File(c.Pos())
	if tf == nil {
		return false
	}
	lineStart := tf.LineStart(pos.Line)
	// Walk the AST for any node that begins on the same line before the
	// comment. Cheap enough: suppressions are rare.
	alone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !alone {
			return false
		}
		if _, isFile := n.(*ast.File); !isFile {
			if n.Pos() >= c.Pos() {
				return false
			}
			if fset.Position(n.Pos()).Line == pos.Line {
				alone = false
				return false
			}
		}
		// Recurse only into nodes that reach the comment's line.
		return n.End() > lineStart
	})
	return alone
}

func (s *suppressions) filter(diags []Diagnostic) []Diagnostic {
	var out []Diagnostic
	for _, d := range diags {
		if lines := s.byLine[d.Pos.Filename]; lines != nil && lines[d.Pos.Line][d.Analyzer] {
			continue
		}
		out = append(out, d)
	}
	return out
}
