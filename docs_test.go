// The design gate: DESIGN.md and README.md name only what exists, and
// every pointer into DESIGN.md lands (DESIGN.md §18 "The design gate").
package cloudfog_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"cloudfog/internal/experiment"
)

// The DESIGN.md sections the gate reads by number.
const (
	inventorySection = 3  // a row per internal/ package, every cmd/ binary
	figureSection    = 4  // a row per registered figure
	gateSection      = 18 // names every entry of both allow files
)

// designGate holds what the documents are checked against, read from the
// code so that it cannot drift.
type designGate struct {
	mod     *module
	tests   map[string]map[string]bool // internal/ directory → top-level funcs of its _test.go files
	metrics map[string]bool            // BENCHMARK.json per_layer names
	dirs    []string                   // directories under internal/
	cmds    []string                   // directories under cmd/
	figures []string                   // experiment.FigureNames()
	reach   []string                   // functions on scripts/reach-allow.txt
	fields  []string                   // Type.field entries on scripts/fields-allow.txt
}

func TestDesignNames(t *testing.T) {
	g := newDesignGate(t)
	for _, p := range g.check(readText(t, "DESIGN.md"), readText(t, "README.md"), citingFiles(t)) {
		t.Error(p)
	}
}

// TestDesignGateCatchesPlantedErrors runs the gate on a small document that
// passes, then on copies with one planted error each.
func TestDesignGateCatchesPlantedErrors(t *testing.T) {
	g := newDesignGate(t)
	g.dirs = []string{"sim"}
	g.cmds = []string{"cloudfog-sim"}
	g.figures = []string{"fig5a", "figscale"}
	g.reach = []string{"Pending"}
	g.fields = []string{"Config.Width"}
	doc := "# DESIGN\n\n" +
		"## 3. Inventory\n\n| system | package |\n|---|---|\n| engine | `internal/sim`: `sim.Engine.Pending` |\n\n" +
		"`cmd/cloudfog-sim` prints the figures of §4.\n\n" +
		"## 4. Figures\n\n| id | runner |\n|---|---|\n" +
		"| fig5a | `experiment.CoverageVsDatacenters` |\n" +
		"| figscale | `experiment.ScaleRun`, `experiment.TestScaleRunGolden` |\n\n" +
		"## 18. Reach\n\n`sim.Engine.Pending` is a probe; `shard.Config.Width` is kept for bench/.\n\n" +
		"## 19. Removed designs\n\n| name | reason |\n|---|---|\n| `sim.Engine.Cancel` | nothing cancels |\n"
	readme := "See DESIGN.md §3, and `live.tick_wait_ms` in `sim.go`.\n"
	// Split, so that the gate does not read this file's planted cites as cites.
	const cite = "DESIGN.md §"
	src := map[string]string{"x.go": "// " + cite + "4 \"Figures\" is the index.\n"}
	if p := g.check(doc, readme, src); len(p) > 0 {
		t.Fatalf("clean document fails: %v", p)
	}
	for _, c := range []struct {
		what, doc, readme string
		src               map[string]string
		want              string
	}{
		{"a stale name", strings.Replace(doc, "is a probe;", "is a probe, `sim.Engine.Cancel` is gone;", 1), readme, src,
			"DESIGN.md:20: `sim.Engine.Cancel` resolves to nothing in internal/sim"},
		{"a stale name in README.md", doc, readme + "`sim.Engine.Cancel`\n", src,
			"README.md:2: `sim.Engine.Cancel` resolves to nothing"},
		{"a stale test name", strings.Replace(doc, "TestScaleRunGolden", "TestScaleRun{Golden,Gone}", 1), readme, src,
			"`experiment.TestScaleRunGone` resolves to nothing"},
		{"a dangling cite", doc, readme, map[string]string{"x.go": "// " + cite + "99 has it.\n"},
			"x.go:1: DESIGN.md has no §99"},
		{"a dangling self-cite", strings.Replace(doc, "of §4", "of §99", 1), readme, src,
			"DESIGN.md:9: DESIGN.md has no §99"},
		{"a cite whose phrase moved", doc, readme, map[string]string{"x.go": "// " + cite + "4 \"Inventory\"\n"},
			`x.go:1: DESIGN.md §4 does not say "Inventory"`},
		{"a missing package row", strings.Replace(doc, "`internal/sim`", "`sim`", 1), readme, src,
			"DESIGN.md §3 has no row for internal/sim"},
		{"a missing binary", strings.Replace(doc, "`cmd/cloudfog-sim`", "the simulator", 1), readme, src,
			"DESIGN.md §3 does not name cmd/cloudfog-sim"},
		{"a missing figure row", strings.Replace(doc, "| figscale |", "| scale |", 1), readme, src,
			"DESIGN.md §4 has no row for figscale"},
		{"an unargued reach entry", strings.Replace(doc, "`sim.Engine.Pending` is a probe;", "", 1), readme, src,
			"DESIGN.md §18 does not name Pending"},
		{"an unargued field entry", strings.Replace(doc, "`shard.Config.Width`", "`shard.Config`", 1), readme, src,
			"DESIGN.md §18 does not name Config.Width"},
	} {
		p := g.check(c.doc, c.readme, c.src)
		if !containsLine(p, c.want) {
			t.Errorf("%s: the gate reports %q, want a line containing %q", c.what, p, c.want)
		}
	}
}

func containsLine(lines []string, want string) bool {
	for _, l := range lines {
		if strings.Contains(l, want) {
			return true
		}
	}
	return false
}

func newDesignGate(t *testing.T) *designGate {
	g := &designGate{
		mod:     loadModule(t),
		tests:   map[string]map[string]bool{},
		metrics: map[string]bool{},
		figures: experiment.FigureNames(),
	}
	g.dirs = subdirs(t, "internal")
	g.cmds = subdirs(t, "cmd")
	fset := token.NewFileSet()
	for _, d := range g.dirs {
		g.tests[d] = map[string]bool{}
		files, _ := filepath.Glob(filepath.Join("internal", d, "*_test.go"))
		for _, name := range files {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					g.tests[d][fn.Name.Name] = true
				}
			}
		}
	}
	var bench struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readText(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range bench.PerLayer {
		g.metrics[m.Name] = true
	}
	for l := range readAllow(t, "scripts/reach-allow.txt") {
		g.reach = append(g.reach, l[strings.LastIndexByte(l, ' ')+1:])
	}
	for l := range readAllow(t, "scripts/fields-allow.txt") {
		id := strings.Fields(l)[1] // pkg.Type.field
		g.fields = append(g.fields, id[strings.IndexByte(id, '.')+1:])
	}
	sort.Strings(g.reach)
	sort.Strings(g.fields)
	g.fields = slices.Compact(g.fields) // unread and unset lines name one field
	return g
}

func subdirs(t *testing.T, root string) []string {
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() {
			out = append(out, e.Name())
		}
	}
	return out
}

func readText(t *testing.T, path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// citingFiles returns every file of the repository that may cite DESIGN.md
// by section, except the two the gate reads on their own and the dated logs.
// Of the hidden directories only the tracked ones are read.
func citingFiles(t *testing.T) map[string]string {
	out := map[string]string{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") && path != ".claude" && path != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		switch path {
		case "DESIGN.md", "README.md", "CHANGES.md", "EXPERIMENTS.md":
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".md", ".sh", ".txt", ".yml", ".json":
		default:
			if d.Name() != "Makefile" {
				return nil
			}
		}
		b, err := os.ReadFile(path)
		out[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var (
	headingRe = regexp.MustCompile(`(?m)^## (\d+)\. (.*)$`)
	fenceRe   = regexp.MustCompile("(?ms)^```.*?^```")
	spanRe    = regexp.MustCompile("`([^`]+)`")
	// A name: pkg, then dotted identifiers, brace forms allowed; the last
	// may list alternatives with slashes (shard.Config.Width/Height).
	nameRe = regexp.MustCompile(`^([a-z][a-z0-9]*)((?:\.[A-Za-z_][\w{},]*)+(?:/[A-Za-z_]\w*)*)`)
	// A section cite elsewhere: DESIGN.md §N, §§N–M, [DESIGN.md](DESIGN.md) §N,
	// optionally followed by a quoted phrase of that section.
	citeRe   = regexp.MustCompile(`DESIGN\.md(?:\]\([^)]*\))?(?:\s|//|#)+§§?(\d+)(?:\s*[–-]\s*§?(\d+))?(?:(?:\s|//|#)+"([^"]+)")?`)
	selfRe   = regexp.MustCompile(`§§?(\d+)(?:\s*[–-]\s*§?(\d+))?`)
	wsRe     = regexp.MustCompile(`(?:\s|//|#)+`)
	fileExts = map[string]bool{"go": true, "json": true, "flight": true, "txt": true, "sh": true, "md": true, "yml": true}
)

// check returns every problem the gate finds in a DESIGN.md, a README.md
// and the other files that cite DESIGN.md.
func (g *designGate) check(design, readme string, citing map[string]string) []string {
	sections := map[int]string{}
	removed := len(design) // where the removed-designs section starts
	heads := headingRe.FindAllStringSubmatchIndex(design, -1)
	for i, h := range heads {
		n, _ := strconv.Atoi(design[h[2]:h[3]])
		end := len(design)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		sections[n] = design[h[0]:end]
		if strings.HasPrefix(design[h[4]:h[5]], "Removed designs") {
			removed = h[0]
		}
	}

	var out []string
	out = append(out, g.names("DESIGN.md", design[:removed])...)
	out = append(out, g.names("README.md", readme)...)

	rows := func(n int) []string {
		var rs []string
		for _, l := range strings.Split(sections[n], "\n") {
			if strings.HasPrefix(l, "|") {
				rs = append(rs, l)
			}
		}
		return rs
	}
	hasRow := func(n int, re *regexp.Regexp) bool {
		for _, r := range rows(n) {
			if re.MatchString(r) {
				return true
			}
		}
		return false
	}
	for _, d := range g.dirs {
		if !hasRow(inventorySection, regexp.MustCompile("`internal/"+d+"`")) {
			out = append(out, fmt.Sprintf("DESIGN.md §%d has no row for internal/%s", inventorySection, d))
		}
	}
	for _, c := range g.cmds {
		if !strings.Contains(sections[inventorySection], "cmd/"+c) {
			out = append(out, fmt.Sprintf("DESIGN.md §%d does not name cmd/%s", inventorySection, c))
		}
	}
	for _, f := range g.figures {
		// fig5a's row may say "Fig. 5a".
		if !hasRow(figureSection, regexp.MustCompile(`(?i)\bfig\.?\s*`+strings.TrimPrefix(f, "fig")+`\b`)) {
			out = append(out, fmt.Sprintf("DESIGN.md §%d has no row for %s", figureSection, f))
		}
	}
	for _, name := range g.reach {
		if !regexp.MustCompile(`\b` + name + `\b`).MatchString(sections[gateSection]) {
			out = append(out, fmt.Sprintf("DESIGN.md §%d does not name %s, which scripts/reach-allow.txt lists", gateSection, name))
		}
	}
	for _, name := range g.fields {
		if !regexp.MustCompile(`\b` + regexp.QuoteMeta(name) + `\b`).MatchString(sections[gateSection]) {
			out = append(out, fmt.Sprintf("DESIGN.md §%d does not name %s, which scripts/fields-allow.txt lists", gateSection, name))
		}
	}

	lands := func(file, text string, at, lo, hi int, phrase string) {
		line := strings.Count(text[:at], "\n") + 1
		for n := lo; n <= hi; n++ {
			if _, ok := sections[n]; !ok {
				out = append(out, fmt.Sprintf("%s:%d: DESIGN.md has no §%d", file, line, n))
				return
			}
		}
		if phrase != "" && !strings.Contains(wsRe.ReplaceAllString(sections[lo], " "), wsRe.ReplaceAllString(phrase, " ")) {
			out = append(out, fmt.Sprintf("%s:%d: DESIGN.md §%d does not say %q", file, line, lo, phrase))
		}
	}
	// num reads submatch i of a cite, the first section when a range's end
	// is absent.
	num := func(text string, m []int, i int) int {
		if m[i] < 0 {
			i = 2
		}
		n, _ := strconv.Atoi(text[m[i]:m[i+1]])
		return n
	}
	for _, m := range selfRe.FindAllStringSubmatchIndex(design, -1) {
		lands("DESIGN.md", design, m[0], num(design, m, 2), num(design, m, 4), "")
	}
	paths := []string{"README.md"}
	for p := range citing {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		text, ok := citing[p]
		if !ok {
			text = readme
		}
		for _, m := range citeRe.FindAllStringSubmatchIndex(text, -1) {
			phrase := ""
			if m[6] >= 0 && m[4] < 0 {
				phrase = text[m[6]:m[7]]
			}
			lands(p, text, m[0], num(text, m, 2), num(text, m, 4), phrase)
		}
	}
	return out
}

// names reports each backticked pkg.Name, pkg.Type.Field or pkg.Type.Method
// of text, pkg a directory under internal/, that resolves to no declaration.
func (g *designGate) names(file, text string) []string {
	var out []string
	text = fenceRe.ReplaceAllStringFunc(text, func(s string) string {
		return strings.Repeat("\n", strings.Count(s, "\n"))
	})
	for _, m := range spanRe.FindAllStringSubmatchIndex(text, -1) {
		nm := nameRe.FindStringSubmatch(text[m[2]:m[3]])
		// g.tests has a key for every directory under internal/.
		if nm == nil || g.tests[nm[1]] == nil || g.metrics[nm[0]] {
			continue
		}
		path := strings.Split(nm[2][1:], ".")
		last := strings.Split(path[len(path)-1], "/")
		if len(path) == 1 && len(last) == 1 && fileExts[path[0]] {
			continue // a file name: sim.go
		}
		for _, alt := range last {
			path[len(path)-1] = alt
			for _, p := range expand(strings.Join(path, ".")) {
				if !g.resolves(nm[1], strings.Split(p, ".")) {
					line := strings.Count(text[:m[0]], "\n") + 1
					out = append(out, fmt.Sprintf("%s:%d: `%s.%s` resolves to nothing in internal/%s", file, line, nm[1], p, nm[1]))
				}
			}
		}
	}
	return out
}

// resolves looks path up in package pkg: the first name in its scope, or
// among the functions of its _test.go files, then each further name as a
// field or method of what the previous one named.
func (g *designGate) resolves(pkg string, path []string) bool {
	if len(path) == 1 && g.tests[pkg][path[0]] {
		return true
	}
	c := g.mod.pkgs["cloudfog/internal/"+pkg]
	if c == nil {
		return false
	}
	obj := c.pkg.Scope().Lookup(path[0])
	for _, name := range path[1:] {
		switch o := obj.(type) {
		case *types.TypeName, *types.Var:
			obj, _, _ = types.LookupFieldOrMethod(o.Type(), true, c.pkg, name)
		default:
			return false
		}
	}
	return obj != nil
}

// expand expands brace forms: TestAdjust{Down,Up}PaperExample.
func expand(s string) []string {
	i := strings.IndexByte(s, '{')
	j := strings.IndexByte(s, '}')
	if i < 0 || j < i {
		return []string{s}
	}
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expand(s[:i]+alt+s[j+1:])...)
	}
	return out
}
