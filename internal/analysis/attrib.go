package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// Attrib makes Σattrib≡elapsed total: every slice of simulated time must
// carry a declared attribution label.
//
//   - Every call to Clock.AdvanceAttr / Clock.AdvanceToAttr must pass a
//     named simclock.Component constant (not a computed value, not the
//     NumComponents sentinel), so attribution labels are grep-able and the
//     componentTable below can be checked for totality.
//   - Bare Clock.Advance / Clock.AdvanceTo calls silently attribute to
//     CompOther; outside the packages enumerated (with a rationale) in
//     attribBareAllowed they fail the build.
//   - The package declaring the Component type must declare a
//     componentTable mapping every Component constant (except the
//     NumComponents sentinel) to a non-empty rationale for its existence.
//   - Any package declaring a summaryOrder variable (tracetool's rendering
//     order) must list every Component constant exactly once, so a newly
//     added component cannot silently vanish from reports.
var Attrib = &Analyzer{
	Name: "attrib",
	Doc:  "clock advances must carry a declared attribution Component",
	Run:  runAttrib,
}

// Names of the declarations the analyzer keys on.
const (
	componentTypeName  = "Component"
	componentSentinel  = "NumComponents"
	componentTableName = "componentTable"
	summaryOrderName   = "summaryOrder"
	clockTypeName      = "Clock"
	clockPkgName       = "simclock"
)

// attribBareAllowed lists the packages permitted to call the bare
// Advance/AdvanceTo forms (which attribute to CompOther), each with the
// reason the default label is correct there. Everywhere else, an advance
// without an explicit Component is a lint failure.
var attribBareAllowed = map[string]string{
	"hybridstore/internal/storage": "RAM device transfers are unclaimed time by design: the Advance default of CompOther keeps Σattrib≡elapsed without inventing a RAM component nobody reports on",
	"attrib/allowedpkg":            "fixture: proves the bare-call allowlist suppresses findings",
}

func runAttrib(pass *Pass) {
	checkAdvanceCalls(pass)
	checkComponentTable(pass)
	checkSummaryOrder(pass)
}

// checkAdvanceCalls enforces the call-site half of the contract in every
// package: attributed advances pass a Component constant, bare advances
// appear only in allowlisted packages.
func checkAdvanceCalls(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch sel.Sel.Name {
			case "AdvanceAttr", "AdvanceToAttr":
				if !isClockMethod(pass, call, sel.Sel.Name) || len(call.Args) < 2 {
					return true
				}
				if c, ok := componentConst(pass, call.Args[1]); !ok {
					pass.Reportf(call.Args[1].Pos(), "%s must be passed a named %s.%s constant, not a computed value: attribution labels are part of the declared taxonomy (Σattrib≡elapsed contract)", sel.Sel.Name, clockPkgName, componentTypeName)
				} else if c.Name() == componentSentinel {
					pass.Reportf(call.Args[1].Pos(), "%s is the array-bound sentinel, not an attribution label: pass a real %s constant", componentSentinel, componentTypeName)
				}
			case "Advance", "AdvanceTo":
				if !isClockMethod(pass, call, sel.Sel.Name) {
					return true
				}
				if _, ok := attribBareAllowed[pass.Path]; !ok {
					pass.Reportf(call.Pos(), "bare %s silently attributes the advance to CompOther: use %sAttr with an explicit Component, or add this package to attribBareAllowed with a rationale", sel.Sel.Name, sel.Sel.Name)
				}
			}
			return true
		})
	}
}

// isClockMethod reports whether call resolves to the named method on the
// simulated clock (a method of a type named Clock declared in a package
// named simclock — matched by name so the golden fixtures, which re-declare
// the shape under a testdata path, exercise the same code).
func isClockMethod(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := methodNamed(pass, call, name)
	if fn == nil {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return typeIs(sig.Recv().Type(), clockPkgName, clockTypeName)
}

// componentConst resolves e (an identifier or pkg.Name selector, possibly
// parenthesized) to a declared constant of the Component type.
func componentConst(pass *Pass, e ast.Expr) (*types.Const, bool) {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			break
		}
		e = p.X
	}
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return nil, false
	}
	c, ok := pass.Info.Uses[id].(*types.Const)
	if !ok || !typeIs(c.Type(), clockPkgName, componentTypeName) {
		return nil, false
	}
	return c, true
}

// componentConsts enumerates the Component constants declared in scope
// (excluding the NumComponents sentinel), sorted by constant value so
// reports follow declaration order.
func componentConsts(scope *types.Scope, pkgName string) []*types.Const {
	var out []*types.Const
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || c.Name() == componentSentinel || !typeIs(c.Type(), pkgName, componentTypeName) {
			continue
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		return constUint(out[i]) < constUint(out[j])
	})
	return out
}

func constUint(c *types.Const) uint64 {
	v, _ := constant.Uint64Val(constant.ToInt(c.Val()))
	return v
}

// checkComponentTable enforces totality of the componentTable declared next
// to the Component type: one entry with a non-empty rationale per constant,
// no sentinel entry, no stale keys.
func checkComponentTable(pass *Pass) {
	tn, ok := pass.Types.Scope().Lookup(componentTypeName).(*types.TypeName)
	if !ok || !typeIs(tn.Type(), pass.Types.Name(), componentTypeName) {
		return
	}
	consts := componentConsts(pass.Types.Scope(), pass.Types.Name())
	if len(consts) == 0 {
		return
	}
	table, positions := identKeyEntries(pass, componentTableName)
	if table == nil {
		pass.Reportf(tn.Pos(), "package declares %s constants but no %s: declare the table so attrib can check every component is accounted for", componentTypeName, componentTableName)
		return
	}
	for _, c := range consts {
		reason, ok := table[c.Name()]
		switch {
		case !ok:
			pass.Reportf(c.Pos(), "%s constant %s has no %s entry: every attribution component needs a declared rationale", componentTypeName, c.Name(), componentTableName)
		case reason == "":
			pass.Reportf(positions[c.Name()], "%s entry for %s needs a non-empty rationale", componentTableName, c.Name())
		}
	}
	names := map[string]bool{}
	for _, c := range consts {
		names[c.Name()] = true
	}
	for key := range table {
		if key == componentSentinel {
			pass.Reportf(positions[key], "%s is the array-bound sentinel, not a component: remove its %s entry", componentSentinel, componentTableName)
		} else if !names[key] {
			pass.Reportf(positions[key], "%s names %s, which is not a %s constant of this package", componentTableName, key, componentTypeName)
		}
	}
}

// checkSummaryOrder enforces that a summaryOrder declaration (tracetool's
// rendering order) covers every Component constant exactly once. The
// constants are enumerated from the package that declares the elements, so
// the check works both for tracetool (selector elements) and for fixtures
// declaring everything in one package.
func checkSummaryOrder(pass *Pass) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != summaryOrderName || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				auditSummaryOrder(pass, vs.Names[0], lit)
			}
		}
	}
}

func auditSummaryOrder(pass *Pass, name *ast.Ident, lit *ast.CompositeLit) {
	seen := map[string]token.Pos{}
	var declPkg *types.Package
	for _, elt := range lit.Elts {
		c, ok := componentConst(pass, elt)
		if !ok {
			pass.Reportf(elt.Pos(), "%s elements must be named %s constants", summaryOrderName, componentTypeName)
			continue
		}
		declPkg = c.Pkg()
		if c.Name() == componentSentinel {
			pass.Reportf(elt.Pos(), "%s is the array-bound sentinel, not a component: remove it from %s", componentSentinel, summaryOrderName)
			continue
		}
		if _, dup := seen[c.Name()]; dup {
			pass.Reportf(elt.Pos(), "%s lists %s twice", summaryOrderName, c.Name())
			continue
		}
		seen[c.Name()] = elt.Pos()
	}
	if declPkg == nil {
		return
	}
	for _, c := range componentConsts(declPkg.Scope(), declPkg.Name()) {
		if _, ok := seen[c.Name()]; !ok {
			pass.Reportf(name.Pos(), "%s omits %s: every declared component must appear in the rendering order, or a new component silently vanishes from reports", summaryOrderName, c.Name())
		}
	}
}

// identKeyEntries reads a package-level `var name = map[K]string{...}`
// composite literal whose keys are identifiers or pkg.Name selectors,
// returning entry string values keyed by the key's identifier name, plus
// per-entry positions. Returns a nil map when no such declaration exists.
func identKeyEntries(pass *Pass, name string) (map[string]string, map[string]token.Pos) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || vs.Names[0].Name != name || len(vs.Values) != 1 {
					continue
				}
				lit, ok := vs.Values[0].(*ast.CompositeLit)
				if !ok {
					continue
				}
				entries := map[string]string{}
				positions := map[string]token.Pos{}
				for _, elt := range lit.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					var key string
					switch k := kv.Key.(type) {
					case *ast.Ident:
						key = k.Name
					case *ast.SelectorExpr:
						key = k.Sel.Name
					default:
						continue
					}
					val, _ := stringLit(kv.Value)
					entries[key] = val
					positions[key] = kv.Pos()
				}
				return entries, positions
			}
		}
	}
	return nil, nil
}

// stringLit unquotes a string literal expression.
func stringLit(e ast.Expr) (string, bool) {
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.STRING {
		return "", false
	}
	s, err := strconv.Unquote(bl.Value)
	return s, err == nil
}
