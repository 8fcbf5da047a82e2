// The field gate: a struct field of cloudfog/internal/... that no product
// code reads, and a hook or option field that no product code sets, fail
// `go test` unless scripts/fields-allow.txt lists them (DESIGN.md §18 "The
// field gate"). `make reach` counts functions entered and cannot see either.
package cloudfog_test

import (
	"bufio"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

const (
	product = iota // cmd/, examples/ and internal/ outside _test.go files
	benched        // the separate bench/ module
)

// fieldUse is what code of each origin does with one field.
type fieldUse struct{ read, set [2]bool }

// checked is one type-checked package of either module.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

// module is the non-test packages of both modules, type-checked from source
// once per test binary: the field gate walks them, and the design gate
// (docs_test.go) resolves DESIGN.md's names in them.
type module struct {
	fset    *token.FileSet
	std     types.Importer
	sources map[string][]string // import path → non-test .go files, both modules
	pkgs    map[string]*checked
}

var (
	loadOnce sync.Once
	loaded   *module
	loadErr  error
)

// loadModule returns the module, loading it on the first call.
func loadModule(t *testing.T) *module {
	t.Helper()
	loadOnce.Do(func() {
		m := &module{fset: token.NewFileSet(), sources: map[string][]string{}, pkgs: map[string]*checked{}}
		m.std = importer.ForCompiler(m.fset, "gc", nil)
		if loadErr = m.scan(".", "cloudfog", "bench"); loadErr != nil {
			return
		}
		if loadErr = m.scan("bench", "cloudfog/bench", ""); loadErr != nil {
			return
		}
		for _, p := range m.paths() {
			if _, loadErr = m.Import(p); loadErr != nil {
				return
			}
		}
		loaded = m
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

type fieldGate struct {
	*module
	uses    map[*types.Var]*fieldUse
	json    map[*types.Struct]bool // reflected by encoding/json
	visited map[types.Type]bool
}

func TestFieldGate(t *testing.T) {
	g := &fieldGate{
		module:  loadModule(t),
		uses:    map[*types.Var]*fieldUse{},
		json:    map[*types.Struct]bool{},
		visited: map[types.Type]bool{},
	}
	for _, p := range g.paths() {
		origin := product
		if strings.HasPrefix(p, "cloudfog/bench") {
			origin = benched
		}
		g.walk(g.pkgs[p], origin)
	}

	found := g.findings()
	allowed := readAllow(t, "scripts/fields-allow.txt")
	for _, f := range found {
		if !allowed[f] {
			t.Errorf("%s: not in scripts/fields-allow.txt — delete it, wire it, or argue it into a DESIGN.md §18 clause", f)
		}
		delete(allowed, f)
	}
	for f := range allowed {
		t.Errorf("%s: in scripts/fields-allow.txt but no longer found — take the line out", f)
	}
}

// paths lists the import paths of both modules, sorted.
func (m *module) paths() []string {
	paths := make([]string, 0, len(m.sources))
	for p := range m.sources {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	return paths
}

// scan records the non-test files of every package under root, skipping skip.
func (m *module) scan(root, module, skip string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (path == skip || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if bp, err := build.ImportDir(path, 0); err == nil && len(bp.GoFiles) > 0 {
			rel, _ := filepath.Rel(root, path)
			importPath := filepath.ToSlash(filepath.Join(module, rel))
			for _, name := range bp.GoFiles {
				m.sources[importPath] = append(m.sources[importPath], filepath.Join(path, name))
			}
		}
		return nil
	})
}

// Import type-checks a package of either module from its non-test files and
// hands anything else to the compiler's export data.
func (m *module) Import(path string) (*types.Package, error) {
	if c, ok := m.pkgs[path]; ok {
		return c.pkg, nil
	}
	sources, ok := m.sources[path]
	if !ok {
		return m.std.Import(path)
	}
	var files []*ast.File
	for _, name := range sources {
		f, err := parser.ParseFile(m.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	p, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = &checked{p, files, info}
	return p, nil
}

func (g *fieldGate) use(v *types.Var) *fieldUse {
	v = v.Origin()
	u := g.uses[v]
	if u == nil {
		u = &fieldUse{}
		g.uses[v] = u
	}
	return u
}

// walk records the field reads and writes of one package. A write is
// `x.f = v`, `x.f op= v`, `x.f++`, a composite-literal element, `&x.f`, an
// element write `x.f[i] = v` or `x.f.g = v` (f holding a struct value), and
// a pointer-receiver method call on `x.f`; every other selector of a field
// is a read (`&x.f` and the method call are both).
func (g *fieldGate) walk(c *checked, origin int) {
	info := c.info
	field := func(e ast.Expr) (*ast.SelectorExpr, *types.Var) {
		for {
			p, ok := e.(*ast.ParenExpr)
			if !ok {
				break
			}
			e = p.X
		}
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return nil, nil
		}
		if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			return sel, s.Obj().(*types.Var)
		}
		return nil, nil
	}
	writeOnly := map[*ast.SelectorExpr]bool{}
	lhs := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			}
			sel, v := field(e)
			if v == nil {
				return
			}
			g.use(v).set[origin] = true
			writeOnly[sel] = true
			if _, ptr := info.Types[sel.X].Type.Underlying().(*types.Pointer); ptr {
				return
			}
			e = sel.X
		}
	}
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				if x.Tok != token.DEFINE {
					for _, e := range x.Lhs {
						lhs(e)
					}
				}
			case *ast.IncDecStmt:
				lhs(x.X)
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					lhs(x.Key)
					if x.Value != nil {
						lhs(x.Value)
					}
				}
			case *ast.UnaryExpr:
				if _, v := field(x.X); x.Op == token.AND && v != nil {
					g.use(v).set[origin] = true
				}
			case *ast.CompositeLit:
				t := info.Types[x].Type
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				st, ok := t.Underlying().(*types.Struct)
				if !ok {
					break
				}
				for i, e := range x.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok {
						g.use(info.Uses[kv.Key.(*ast.Ident)].(*types.Var)).set[origin] = true
					} else {
						g.use(st.Field(i)).set[origin] = true
					}
				}
			case *ast.CallExpr:
				fn, _ := x.Fun.(*ast.SelectorExpr)
				if fn == nil {
					break
				}
				if s := info.Selections[fn]; s != nil && s.Kind() == types.MethodVal {
					if _, ptr := s.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer); ptr {
						if _, v := field(fn.X); v != nil {
							g.use(v).set[origin] = true
						}
					}
				}
				if obj := info.Uses[fn.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "encoding/json" {
					for _, a := range x.Args {
						g.reflected(info.Types[a].Type)
					}
				}
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := info.Selections[sel]
			if s == nil {
				return true
			}
			// The embedded fields a promoted selector passes through are read.
			t := s.Recv()
			for _, i := range s.Index()[:len(s.Index())-1] {
				if p, ok := t.Underlying().(*types.Pointer); ok {
					t = p.Elem()
				}
				v := t.Underlying().(*types.Struct).Field(i)
				g.use(v).read[origin] = true
				t = v.Type()
			}
			if s.Kind() == types.FieldVal && !writeOnly[sel] {
				g.use(s.Obj().(*types.Var)).read[origin] = true
			}
			return true
		})
	}
}

// reflected marks a type that encoding/json walks: its exported fields and
// whatever they hold.
func (g *fieldGate) reflected(t types.Type) {
	if t == nil || g.visited[t] {
		return
	}
	g.visited[t] = true
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		g.reflected(u.Elem())
	case *types.Slice:
		g.reflected(u.Elem())
	case *types.Array:
		g.reflected(u.Elem())
	case *types.Map:
		g.reflected(u.Elem())
	case *types.Struct:
		g.json[u] = true
		for i := 0; i < u.NumFields(); i++ {
			if u.Field(i).Exported() {
				g.reflected(u.Field(i).Type())
			}
		}
	}
}

// findings lists, sorted, "unread pkg.Type.field" for each field of a
// package-level struct of cloudfog/internal/... that product code never
// reads, and "unset pkg.Type.field" for each func-typed field, and each field
// of an *Options or *Config struct, that product code never sets. A line
// ends in " bench" when the bench/ module does what product code does not.
func (g *fieldGate) findings() []string {
	var out []string
	for path, c := range g.pkgs {
		if !strings.HasPrefix(path, "cloudfog/internal/") {
			continue
		}
		pkg := c.pkg
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			tagged := false
			for i := 0; i < st.NumFields(); i++ {
				if _, ok := reflect.StructTag(st.Tag(i)).Lookup("json"); ok {
					tagged = true
				}
			}
			for i := 0; i < st.NumFields(); i++ {
				v := st.Field(i)
				if v.Name() == "_" || tagged || (g.json[st] && v.Exported()) {
					continue
				}
				u := g.uses[v]
				if u == nil {
					u = &fieldUse{}
				}
				id := pkg.Name() + "." + name + "." + v.Name()
				if !u.read[product] {
					out = append(out, line("unread", id, u.read[benched]))
				}
				_, hook := v.Type().Underlying().(*types.Signature)
				option := strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config")
				if (hook || option) && !u.set[product] {
					out = append(out, line("unset", id, u.set[benched]))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

func line(kind, id string, bench bool) string {
	if bench {
		return kind + " " + id + " bench"
	}
	return kind + " " + id
}

// readAllow reads an allow file: one finding per line, # comments.
func readAllow(t *testing.T, path string) map[string]bool {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); l != "" && !strings.HasPrefix(l, "#") {
			out[l] = true
		}
	}
	return out
}
