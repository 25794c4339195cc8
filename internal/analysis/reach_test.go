// The program gate is a test, and lives in one: only
// TestEveryFunctionHasAProgram and TestUnreachedFixture run it.

package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/constant"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"text/template/parse"
)

// Unreached is the program gate: it returns each function and method
// of pkgs that no program reaches, and each //marketlint:oracle
// annotation that names no test or that a program makes stale.
//
// The roots are main in every main package and every package's init
// functions and package-level initializers. Reached code reaches what it references,
// called or taken as a value (generic code through its origin), and
// the methods of each type it converts to an interface, at a call
// argument, assignment, return, composite-literal element or send: the
// interface's own methods, and those the standard library looks for in
// any value it is handed and in the exported fields it reflects into
// (String, Error, MarshalJSON, Unwrap and the like). A constant
// template handed to a template's Parse reaches the methods its fields
// name on the data handed to a template's Execute. This is rapid type
// analysis: it matches methods by name within a type's method set,
// never by a name alone.
//
// A function kept for tests carries //marketlint:oracle TestName...;
// it is reported unless each name is a test of some package in pkgs,
// and it is a root only after the program's own reach is known. A
// package whose name ends in "test" is test support and is not
// reported.
func Unreached(pkgs []*Package) ([]Diagnostic, error) {
	r := &reacher{
		decls:    map[string]funcSite{},
		reached:  map[string]bool{},
		conv:     map[[2]types.Type]bool{},
		probed:   map[types.Type]bool{},
		dataSeen: map[types.Type]bool{},
		named:    map[string]bool{},
	}
	tests := map[string]bool{}
	fset := token.NewFileSet()
	var inits, roots []funcSite
	type oracle struct {
		site  funcSite
		tests []string
	}
	var oracles []oracle
	type varDecl struct {
		pkg *Package
		gd  *ast.GenDecl
	}
	var vars []varDecl
	for _, pkg := range pkgs {
		for _, name := range pkg.TestFiles {
			f, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && slices.ContainsFunc(
					[]string{"Test", "Fuzz", "Benchmark", "Example"},
					func(prefix string) bool { return strings.HasPrefix(fd.Name.Name, prefix) }) {
					tests[fd.Name.Name] = true
				}
			}
		}
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					if gd := d.(*ast.GenDecl); gd.Tok == token.VAR {
						vars = append(vars, varDecl{pkg, gd})
					}
					continue
				}
				fn := pkg.Info.Defs[fd.Name].(*types.Func)
				site := funcSite{pkg, fd, fn}
				if fd.Recv == nil && fd.Name.Name == "init" {
					inits = append(inits, site)
					continue
				}
				r.decls[fn.FullName()] = site
				for _, a := range parseAnnotations(fd.Doc) {
					if a.Name == "oracle" {
						oracles = append(oracles, oracle{site, strings.Fields(a.Args)})
					}
				}
				if fd.Recv == nil && fd.Name.Name == "main" && pkg.Types.Name() == "main" {
					roots = append(roots, site)
				}
			}
		}
	}
	for _, v := range vars {
		r.walk(v.pkg, v.gd, nil)
	}
	for _, site := range inits {
		r.walkFunc(site)
	}
	for _, site := range roots {
		r.mark(site.fn)
	}
	r.drain()

	var diags []Diagnostic
	report := func(site funcSite, format string, args ...any) {
		diags = append(diags, Diagnostic{
			Analyzer: "reach",
			Pos:      site.pkg.Fset.Position(site.fd.Name.Pos()),
			Message:  fmt.Sprintf(format, args...),
			pos:      site.fd.Name.Pos(),
		})
	}
	for _, o := range oracles {
		if r.reached[o.site.fn.FullName()] {
			report(o.site, "%s is a program's, not only a test's: drop its oracle annotation", o.site.name())
		}
		if len(o.tests) == 0 {
			report(o.site, "oracle %s names no test", o.site.name())
		}
		for _, name := range o.tests {
			if !tests[name] {
				report(o.site, "oracle %s names %s, which is no test", o.site.name(), name)
			}
		}
		r.mark(o.site.fn)
	}
	r.drain()
	for key, site := range r.decls {
		if !r.reached[key] && !strings.HasSuffix(site.pkg.Types.Name(), "test") {
			report(site, "no program reaches %s: delete it, move it into a _test.go file, or mark it //marketlint:oracle TestName", site.name())
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), strings.Compare(a.Message, b.Message))
	})
	return diags, nil
}

// A funcSite is one declared function or method.
type funcSite struct {
	pkg *Package
	fd  *ast.FuncDecl
	fn  *types.Func
}

// name is the function's full name without its package path.
func (s funcSite) name() string {
	return strings.ReplaceAll(s.fn.FullName(), s.pkg.Path+".", "")
}

// probed names the methods the standard library finds by type
// assertion on a value handed to it as an interface, or on the exported
// fields and elements it reflects into: fmt's, encoding/json's,
// encoding's and errors'.
var probed = []string{"String", "Error", "Format", "GoString", "MarshalJSON", "MarshalText", "Unwrap", "Is", "As"}

// templateParse names the methods whose constant argument is a
// template's text, and templateExecute those whose last argument is a
// template's data.
var (
	templateParse   = []string{"(*html/template.Template).Parse", "(*text/template.Template).Parse"}
	templateExecute = []string{
		"(*html/template.Template).Execute", "(*html/template.Template).ExecuteTemplate",
		"(*text/template.Template).Execute", "(*text/template.Template).ExecuteTemplate",
	}
)

// A reacher is one rapid-type-analysis pass: functions are keyed by
// their full names, so a package loaded twice (from source, and as
// another module's export data) is one set of keys.
type reacher struct {
	decls   map[string]funcSite // functions with a body to walk
	reached map[string]bool
	queue   []funcSite
	conv    map[[2]types.Type]bool // conversions already applied
	probed  map[types.Type]bool    // types already probed
	// dataSets are the method sets of the templates' data, named the
	// method names the templates' fields call on them.
	dataSeen map[types.Type]bool
	dataSets []*types.MethodSet
	named    map[string]bool
}

// mark reaches fn and queues its body once.
func (r *reacher) mark(fn *types.Func) {
	key := fn.Origin().FullName()
	if r.reached[key] {
		return
	}
	r.reached[key] = true
	if site, ok := r.decls[key]; ok {
		r.queue = append(r.queue, site)
	}
}

func (r *reacher) drain() {
	for len(r.queue) > 0 {
		site := r.queue[len(r.queue)-1]
		r.queue = r.queue[:len(r.queue)-1]
		r.walkFunc(site)
	}
}

func (r *reacher) walkFunc(site funcSite) {
	if site.fd.Body != nil {
		r.walk(site.pkg, site.fd.Body, site.fn.Type().(*types.Signature))
	}
}

// walk reaches what node references and converts; sig is the enclosing
// function's signature, for its return statements.
func (r *reacher) walk(pkg *Package, node ast.Node, sig *types.Signature) {
	info := pkg.Info
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			r.walk(pkg, n.Body, info.TypeOf(n).(*types.Signature))
			return false
		case *ast.Ident:
			if fn, ok := info.Uses[n].(*types.Func); ok {
				r.mark(fn)
			}
			if inst, ok := info.Instances[n]; ok {
				r.instance(info.Uses[n], inst.TypeArgs)
			}
		case *ast.CallExpr:
			r.call(info, n)
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, rhs := range n.Rhs {
					r.convert(info.TypeOf(rhs), info.TypeOf(n.Lhs[i]))
				}
			}
		case *ast.ValueSpec:
			if n.Type != nil {
				for _, v := range n.Values {
					r.convert(info.TypeOf(v), info.TypeOf(n.Type))
				}
			}
		case *ast.ReturnStmt:
			if sig != nil && len(n.Results) == sig.Results().Len() {
				for i, res := range n.Results {
					r.convert(info.TypeOf(res), sig.Results().At(i).Type())
				}
			}
		case *ast.CompositeLit:
			r.composite(info, n)
		case *ast.SendStmt:
			if ch, ok := under(info.TypeOf(n.Chan)).(*types.Chan); ok {
				r.convert(info.TypeOf(n.Value), ch.Elem())
			}
		}
		return true
	})
}

// instance reaches the methods each type argument of a generic
// instantiation gives its constraint. A type argument is no value the
// standard library is handed: it is not probed.
func (r *reacher) instance(obj types.Object, args *types.TypeList) {
	var params *types.TypeParamList
	switch t := obj.Type().(type) {
	case *types.Signature:
		params = t.TypeParams()
	case *types.Named:
		params = t.TypeParams()
	}
	for i := 0; params != nil && i < params.Len() && i < args.Len(); i++ {
		r.implement(args.At(i), params.At(i).Constraint())
	}
}

func (r *reacher) call(info *types.Info, call *ast.CallExpr) {
	fun := info.Types[call.Fun]
	if fun.IsType() {
		if len(call.Args) == 1 {
			r.convert(info.TypeOf(call.Args[0]), fun.Type)
		}
		return
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			if s, ok := under(info.TypeOf(call)).(*types.Slice); ok && b.Name() == "append" && !call.Ellipsis.IsValid() {
				for _, arg := range call.Args[1:] {
					r.convert(info.TypeOf(arg), s.Elem())
				}
			}
			return
		}
	}
	sig, ok := under(fun.Type).(*types.Signature)
	if !ok {
		return
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && len(call.Args) > 0 {
		if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
			last := call.Args[len(call.Args)-1]
			if v := info.Types[last].Value; slices.Contains(templateParse, fn.FullName()) && v != nil && v.Kind() == constant.String {
				r.template(constant.StringVal(v))
			}
			if slices.Contains(templateExecute, fn.FullName()) {
				r.data(info.TypeOf(last))
			}
		}
	}
	var args []types.Type
	if len(call.Args) == 1 {
		if tuple, ok := info.TypeOf(call.Args[0]).(*types.Tuple); ok {
			for i := 0; i < tuple.Len(); i++ {
				args = append(args, tuple.At(i).Type())
			}
		}
	}
	if args == nil {
		for _, arg := range call.Args {
			args = append(args, info.TypeOf(arg))
		}
	}
	params := sig.Params()
	for i, arg := range args {
		switch {
		case sig.Variadic() && i >= params.Len()-1 && !call.Ellipsis.IsValid():
			r.convert(arg, params.At(params.Len()-1).Type().(*types.Slice).Elem())
		case i < params.Len():
			r.convert(arg, params.At(i).Type())
		}
	}
}

func (r *reacher) composite(info *types.Info, lit *ast.CompositeLit) {
	t := under(info.TypeOf(lit))
	if p, ok := t.(*types.Pointer); ok {
		t = under(p.Elem())
	}
	for i, elt := range lit.Elts {
		key, val := ast.Expr(nil), elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			key, val = kv.Key, kv.Value
		}
		switch t := t.(type) {
		case *types.Struct:
			if id, ok := key.(*ast.Ident); ok {
				if field, ok := info.Uses[id].(*types.Var); ok {
					r.convert(info.TypeOf(val), field.Type())
				}
			} else if key == nil && i < t.NumFields() {
				r.convert(info.TypeOf(val), t.Field(i).Type())
			}
		case *types.Slice:
			r.convert(info.TypeOf(val), t.Elem())
		case *types.Array:
			r.convert(info.TypeOf(val), t.Elem())
		case *types.Map:
			r.convert(info.TypeOf(key), t.Key())
			r.convert(info.TypeOf(val), t.Elem())
		}
	}
}

// convert reaches the methods that a conversion of a from value to an
// interface type to can call.
func (r *reacher) convert(from, to types.Type) {
	if from != nil && to != nil && types.IsInterface(to) && !types.IsInterface(from) {
		r.implement(from, to)
		r.probe(from)
	}
}

// implement reaches the methods of from that interface to has.
func (r *reacher) implement(from, to types.Type) {
	if r.conv[[2]types.Type{from, to}] {
		return
	}
	r.conv[[2]types.Type{from, to}] = true
	ms := types.NewMethodSet(from)
	for i := 0; i < ms.Len(); i++ {
		m := ms.At(i).Obj().(*types.Func)
		if obj, _, _ := types.LookupFieldOrMethod(to, false, m.Pkg(), m.Name()); obj != nil {
			r.mark(m)
		}
	}
}

// probe reaches the probed methods of a value of type t handed to the
// standard library, and of what it reflects into.
func (r *reacher) probe(t types.Type) {
	reflectInto(t, r.probed, func(ms *types.MethodSet) {
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj().(*types.Func); slices.Contains(probed, m.Name()) {
				r.mark(m)
			}
		}
	})
}

// data reaches the methods a template names on the data it executes
// with, a value of type t, and on what it reflects into.
func (r *reacher) data(t types.Type) {
	reflectInto(t, r.dataSeen, func(ms *types.MethodSet) {
		r.dataSets = append(r.dataSets, ms)
		for i := 0; i < ms.Len(); i++ {
			if m := ms.At(i).Obj().(*types.Func); r.named[m.Name()] {
				r.mark(m)
			}
		}
	})
}

// reflectInto visits the method set of *t (of t, when t is a pointer or
// an interface) and recurses through the exported fields and the
// elements of t that reflection reaches, each type once.
func reflectInto(t types.Type, seen map[types.Type]bool, visit func(*types.MethodSet)) {
	if seen[t] {
		return
	}
	seen[t] = true
	if _, ok := t.(*types.Pointer); !ok && !types.IsInterface(t) {
		t = types.NewPointer(t)
	}
	visit(types.NewMethodSet(t))
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		reflectInto(u.Elem(), seen, visit)
	case *types.Slice:
		reflectInto(u.Elem(), seen, visit)
	case *types.Array:
		reflectInto(u.Elem(), seen, visit)
	case *types.Map:
		reflectInto(u.Key(), seen, visit)
		reflectInto(u.Elem(), seen, visit)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() || f.Embedded() {
				reflectInto(f.Type(), seen, visit)
			}
		}
	}
}

// template reaches each method that a field of the template text names
// on a template's data. A template that does not parse reaches nothing:
// the program's own Parse fails on it first.
func (r *reacher) template(text string) {
	tree := parse.New("reach")
	tree.Mode = parse.SkipFuncCheck
	defs := map[string]*parse.Tree{}
	if _, err := tree.Parse(text, "", "", defs); err != nil {
		return
	}
	var visit func(parse.Node)
	visit = func(n parse.Node) {
		var names []string
		switch n := n.(type) {
		case *parse.ListNode:
			if n != nil {
				for _, c := range n.Nodes {
					visit(c)
				}
			}
		case *parse.ActionNode:
			visit(n.Pipe)
		case *parse.PipeNode:
			if n != nil {
				for _, c := range n.Cmds {
					visit(c)
				}
			}
		case *parse.CommandNode:
			for _, c := range n.Args {
				visit(c)
			}
		case *parse.BranchNode:
			visit(n.Pipe)
			visit(n.List)
			visit(n.ElseList)
		case *parse.IfNode:
			visit(&n.BranchNode)
		case *parse.RangeNode:
			visit(&n.BranchNode)
		case *parse.WithNode:
			visit(&n.BranchNode)
		case *parse.TemplateNode:
			visit(n.Pipe)
		case *parse.ChainNode:
			visit(n.Node)
			names = n.Field
		case *parse.FieldNode:
			names = n.Ident
		case *parse.VariableNode:
			names = n.Ident[1:]
		}
		for _, name := range names {
			if r.named[name] {
				continue
			}
			r.named[name] = true
			for _, ms := range r.dataSets {
				if sel := ms.Lookup(nil, name); sel != nil {
					r.mark(sel.Obj().(*types.Func))
				}
			}
		}
	}
	visit(tree.Root)
	for _, def := range defs {
		visit(def.Root)
	}
}

// under is t's underlying type, or nil.
func under(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}
