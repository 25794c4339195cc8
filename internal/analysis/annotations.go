package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// The annotation grammar (documented in DESIGN.md, "Static analysis &
// contracts"):
//
//	//marketlint:orderfree <reason>   — this map-range loop is
//	    order-insensitive; maporder trusts the author's reason.
//	//marketlint:allocfree            — this function is a pinned
//	    zero-allocation hot path; allocfree checks its body.
//	//marketlint:allow <analyzer> <reason> — suppress one analyzer's
//	    findings within the annotated statement or declaration.
//
// Annotations are ordinary line comments beginning exactly with
// "//marketlint:" (no space, mirroring //go:build), placed in a
// function's doc comment or on/above the statement they govern.

// AnnotationPrefix is the comment prefix all marketlint annotations share.
const AnnotationPrefix = "//marketlint:"

// An Annotation is one parsed //marketlint: directive.
type Annotation struct {
	Name string // e.g. "orderfree", "allocfree", "allow"
	Args string // remainder of the line, trimmed; the reason text
}

// parseAnnotations extracts marketlint directives from a comment group.
func parseAnnotations(cg *ast.CommentGroup) []Annotation {
	if cg == nil {
		return nil
	}
	var anns []Annotation
	for _, c := range cg.List {
		rest, ok := strings.CutPrefix(c.Text, AnnotationPrefix)
		if !ok {
			continue
		}
		name, args, _ := strings.Cut(rest, " ")
		anns = append(anns, Annotation{
			Name: strings.TrimSpace(name),
			Args: strings.TrimSpace(args),
		})
	}
	return anns
}

// FuncAnnotation returns the named annotation from fn's doc comment.
func (p *Pass) FuncAnnotation(fn *ast.FuncDecl, name string) *Annotation {
	for _, a := range parseAnnotations(fn.Doc) {
		if a.Name == name {
			return &a
		}
	}
	return nil
}

// FuncAnnotated reports whether fn carries the named annotation in its
// doc comment. fn may be declared in any package RunAnalyzers was
// given, this one or another: it is matched on the full name of its
// generic origin, so an imported function or an instantiated method
// resolves to its declaration.
func (p *Pass) FuncAnnotated(fn *types.Func, name string) bool {
	for _, a := range p.funcs[fn.Origin().FullName()] {
		if a.Name == name {
			return true
		}
	}
	return false
}

// NodeAnnotation returns the named annotation attached to node: a
// marketlint comment on its own line directly above the node or
// trailing on the node's final line (the ast.CommentMap association
// rules), or in the doc comment when node is a declaration.
func (p *Pass) NodeAnnotation(node ast.Node, name string) *Annotation {
	if fd, ok := node.(*ast.FuncDecl); ok {
		if a := p.FuncAnnotation(fd, name); a != nil {
			return a
		}
	}
	file := p.FileFor(node.Pos())
	if file == nil {
		return nil
	}
	for _, cg := range p.commentMap(file)[node] {
		for _, a := range parseAnnotations(cg) {
			if a.Name == name {
				return &a
			}
		}
	}
	return nil
}

// suppressed reports whether d falls inside a node annotated
// `//marketlint:allow <analyzer> <reason>` naming d's analyzer. The
// annotation must carry a reason; a reasonless allow suppresses
// nothing (and maporder/allocfree report reasonless annotations of
// their own kinds as findings).
func (p *Pass) suppressed(d Diagnostic) bool {
	file := p.FileFor(d.pos)
	if file == nil {
		return false
	}
	suppressed := false
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil || suppressed {
			return false
		}
		if n.Pos() > d.pos || n.End() <= d.pos {
			// Not an ancestor of the diagnostic site. (File nodes keep
			// descending: doc comments sit outside Decls' extents.)
			_, isFile := n.(*ast.File)
			return isFile
		}
		if a := p.NodeAnnotation(n.(ast.Node), "allow"); a != nil {
			analyzer, reason, _ := strings.Cut(a.Args, " ")
			if analyzer == d.Analyzer && strings.TrimSpace(reason) != "" {
				suppressed = true
				return false
			}
		}
		return true
	})
	return suppressed
}
