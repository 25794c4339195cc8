package bidlang

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"clustermarket/internal/resource"
)

// ParseAll reads every bid in src, each in the canonical text syntax:
//
//	bid "team-storage" limit 120.5 {
//	  oneof {
//	    all { r1/cpu:40 r1/ram:96 r1/disk:10 }
//	    all { r2/cpu:40 r2/ram:96 r2/disk:10 }
//	  }
//	}
//
// Quantities may be negative (offers). Comments run from '#' to end of
// line.
func ParseAll(src string) ([]*Bid, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	var bids []*Bid
	for !p.atEOF() {
		b, err := p.parseBid()
		if err != nil {
			return nil, err
		}
		bids = append(bids, b)
	}
	if len(bids) == 0 {
		return nil, fmt.Errorf("bidlang: no bids found")
	}
	return bids, nil
}

type tokKind int

const (
	tokWord tokKind = iota // identifiers, keywords, pool refs
	tokString
	tokNumber
	tokLBrace
	tokRBrace
)

type token struct {
	kind tokKind
	text string
	line int
}

func lex(src string) ([]token, error) {
	var toks []token
	line := 1
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == '\n':
			line++
			i++
		case c == ' ' || c == '\t' || c == '\r':
			i++
		case c == '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		case c == '{':
			toks = append(toks, token{tokLBrace, "{", line})
			i++
		case c == '}':
			toks = append(toks, token{tokRBrace, "}", line})
			i++
		case c == '"':
			j := i + 1
			for j < len(src) && src[j] != '"' {
				if src[j] == '\n' {
					return nil, fmt.Errorf("bidlang:%d: unterminated string", line)
				}
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("bidlang:%d: unterminated string", line)
			}
			toks = append(toks, token{tokString, src[i+1 : j], line})
			i = j + 1
		case c == '-' || c == '+' || c == '.' || unicode.IsDigit(rune(c)):
			j := i + 1
			for j < len(src) && (unicode.IsDigit(rune(src[j])) || src[j] == '.' || src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '-' || src[j] == '+') && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokNumber, src[i:j], line})
			i = j
		case unicode.IsLetter(rune(c)) || c == '_':
			j := i + 1
			// '+' continues the word only as an exponent sign (e+/E+), the
			// same rule the number lexer uses: leaf quantities rendered in
			// scientific notation ("r1/cpu:1e+20") must lex back as one
			// token, or Bid.String output would not round-trip through
			// Parse.
			for j < len(src) && (unicode.IsLetter(rune(src[j])) || unicode.IsDigit(rune(src[j])) ||
				src[j] == '_' || src[j] == '-' || src[j] == '/' || src[j] == ':' || src[j] == '.' ||
				(src[j] == '+' && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{tokWord, src[i:j], line})
			i = j
		default:
			return nil, fmt.Errorf("bidlang:%d: unexpected character %q", line, c)
		}
	}
	return toks, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) atEOF() bool { return p.pos >= len(p.toks) }

func (p *parser) peek() (token, error) {
	if p.atEOF() {
		return token{}, fmt.Errorf("bidlang: unexpected end of input")
	}
	return p.toks[p.pos], nil
}

func (p *parser) next() (token, error) {
	t, err := p.peek()
	if err == nil {
		p.pos++
	}
	return t, err
}

func (p *parser) expectWord(word string) error {
	t, err := p.next()
	if err != nil {
		return err
	}
	if t.kind != tokWord || t.text != word {
		return fmt.Errorf("bidlang:%d: expected %q, found %q", t.line, word, t.text)
	}
	return nil
}

func (p *parser) expectKind(k tokKind, what string) (token, error) {
	t, err := p.next()
	if err != nil {
		return token{}, err
	}
	if t.kind != k {
		return token{}, fmt.Errorf("bidlang:%d: expected %s, found %q", t.line, what, t.text)
	}
	return t, nil
}

func (p *parser) parseBid() (*Bid, error) {
	if err := p.expectWord("bid"); err != nil {
		return nil, err
	}
	name, err := p.expectKind(tokString, "quoted user name")
	if err != nil {
		return nil, err
	}
	if err := p.expectWord("limit"); err != nil {
		return nil, err
	}
	lim, err := p.expectKind(tokNumber, "limit value")
	if err != nil {
		return nil, err
	}
	limit, err := strconv.ParseFloat(lim.text, 64)
	if err != nil {
		return nil, fmt.Errorf("bidlang:%d: bad limit %q: %v", lim.line, lim.text, err)
	}
	if _, err := p.expectKind(tokLBrace, "{"); err != nil {
		return nil, err
	}
	nodes, err := p.parseNodesUntilRBrace()
	if err != nil {
		return nil, err
	}
	var root Node
	switch len(nodes) {
	case 0:
		return nil, fmt.Errorf("bidlang: bid %q is empty", name.text)
	case 1:
		root = nodes[0]
	default:
		// Multiple top-level nodes are an implicit All.
		root = All{Children: nodes}
	}
	return &Bid{User: name.text, Limit: limit, Root: root}, nil
}

func (p *parser) parseNodesUntilRBrace() ([]Node, error) {
	var nodes []Node
	for {
		t, err := p.peek()
		if err != nil {
			return nil, err
		}
		if t.kind == tokRBrace {
			p.pos++
			return nodes, nil
		}
		n, err := p.parseNode()
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
}

func (p *parser) parseNode() (Node, error) {
	t, err := p.next()
	if err != nil {
		return nil, err
	}
	if t.kind != tokWord {
		return nil, fmt.Errorf("bidlang:%d: expected node, found %q", t.line, t.text)
	}
	switch t.text {
	case "all", "oneof":
		if _, err := p.expectKind(tokLBrace, "{"); err != nil {
			return nil, err
		}
		children, err := p.parseNodesUntilRBrace()
		if err != nil {
			return nil, err
		}
		if len(children) == 0 {
			return nil, fmt.Errorf("bidlang:%d: %s node is empty", t.line, t.text)
		}
		if t.text == "all" {
			return All{Children: children}, nil
		}
		return OneOf{Children: children}, nil
	default:
		return parseLeaf(t)
	}
}

// parseLeaf interprets a word token of the form "cluster/dim:qty".
func parseLeaf(t token) (Node, error) {
	slash := strings.IndexByte(t.text, '/')
	colon := strings.LastIndexByte(t.text, ':')
	if slash < 0 || colon < 0 || colon < slash {
		return nil, fmt.Errorf("bidlang:%d: expected cluster/dim:qty leaf, found %q", t.line, t.text)
	}
	cluster := t.text[:slash]
	dimName := t.text[slash+1 : colon]
	qtyText := t.text[colon+1:]
	if cluster == "" {
		return nil, fmt.Errorf("bidlang:%d: empty cluster in %q", t.line, t.text)
	}
	dim, err := resource.ParseDimension(dimName)
	if err != nil {
		return nil, fmt.Errorf("bidlang:%d: %v", t.line, err)
	}
	qty, err := strconv.ParseFloat(qtyText, 64)
	if err != nil {
		return nil, fmt.Errorf("bidlang:%d: bad quantity %q: %v", t.line, qtyText, err)
	}
	if qty == 0 {
		return nil, fmt.Errorf("bidlang:%d: zero quantity in %q", t.line, t.text)
	}
	return Leaf{Pool: resource.Pool{Cluster: cluster, Dim: dim}, Qty: qty}, nil
}
