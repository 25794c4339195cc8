package webui

import (
	"errors"
	"fmt"
	"html/template"
	"io"
	"math"
	"mime"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

// The responses on the hot path — the bid acknowledgement and the
// orders poll — are appended into one buffer and written with a single
// Write. Their markup and wire form still have one source each: the
// acknowledgement is the bidDone template rendered once per server, and
// orderView's JSON tags name the fields the encoder writes. The tests
// hold both to html/template and encoding/json byte for byte.

// ackPage is the bid acknowledgement split at its three per-request
// values — order id, team, limit — into four constant fragments.
type ackPage [4]string

// ackSentinel stands in for a per-request value when the template is
// rendered at construction. Its text is control bytes and letters:
// html/template's text-context escaper leaves it alone, and the href
// attributes the prefix is rendered into percent-encode a control byte,
// so a sentinel can only appear where its own field is rendered.
type ackSentinel string

// Format prints the sentinel verbatim under any verb, so it survives
// the template's printf "%.2f" as well as a bare {{.ID}}.
func (s ackSentinel) Format(f fmt.State, _ rune) { f.Write([]byte(s)) }

// newAckPage renders t (the bidDone template) with sentinels in place of
// the per-request values and splits the output around them. Each
// sentinel must occur exactly once, in field order.
func newAckPage(t *template.Template, prefix string) (ackPage, error) {
	sentinels := [3]ackSentinel{"\x01id\x01", "\x01team\x01", "\x01limit\x01"}
	var sb strings.Builder
	err := t.Execute(&sb, struct {
		Prefix          string
		ID, Team, Limit ackSentinel
	}{prefix, sentinels[0], sentinels[1], sentinels[2]})
	if err != nil {
		return ackPage{}, err
	}
	rest := sb.String()
	var p ackPage
	for i, sen := range sentinels {
		if n := strings.Count(rest, string(sen)); n != 1 {
			return ackPage{}, fmt.Errorf("webui: acknowledgement sentinel %q rendered %d times after fragment %d", sen, n, i)
		}
		p[i], rest, _ = strings.Cut(rest, string(sen))
	}
	p[3] = rest
	return p, nil
}

// appendTo writes the acknowledgement for one booked order.
func (p *ackPage) appendTo(b []byte, id int, team string, limit float64) []byte {
	b = append(b, p[0]...)
	b = strconv.AppendInt(b, int64(id), 10)
	b = append(b, p[1]...)
	b = appendHTMLText(b, team)
	b = append(b, p[2]...)
	var num [32]byte
	b = appendHTMLText(b, strconv.AppendFloat(num[:0], limit, 'f', 2, 64))
	return append(b, p[3]...)
}

// htmlText is html/template's escaping table for text between tags:
// NUL becomes U+FFFD and six ASCII bytes become references. Every other
// byte — including bytes that are not UTF-8 — passes through unchanged,
// as the template's escaper leaves them.
var htmlText = [128]string{
	0:    "\uFFFD",
	'"':  "&#34;",
	'&':  "&amp;",
	'\'': "&#39;",
	'+':  "&#43;",
	'<':  "&lt;",
	'>':  "&gt;",
}

func appendHTMLText[T string | []byte](b []byte, s T) []byte {
	start := 0
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < utf8.RuneSelf && htmlText[c] != "" {
			b = append(b, s[start:i]...)
			b = append(b, htmlText[c]...)
			start = i + 1
		}
	}
	return append(b, s[start:]...)
}

// appendJSON writes v as encoding/json's Encoder does, trailing newline
// excluded. A non-finite float is refused with encoding/json's error.
func (v *orderView) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(v.ID), 10)
	b = append(b, `,"team":`...)
	b = appendJSONString(b, v.Team)
	b = append(b, `,"user":`...)
	b = appendJSONString(b, v.User)
	b = append(b, `,"status":`...)
	b = appendJSONString(b, v.Status)
	b = append(b, `,"auction":`...)
	b = strconv.AppendInt(b, int64(v.Auction), 10)
	b = append(b, `,"payment":`...)
	b, err := appendJSONFloat(b, v.Payment)
	if err != nil {
		return b, err
	}
	b = append(b, `,"limit":`...)
	if b, err = appendJSONFloat(b, v.Limit); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

// appendJSONFloat follows encoding/json's float64 rule: the shortest
// 'f' form, switching to 'e' outside [1e-6, 1e21) with a two-digit
// negative exponent shortened (e-07 → e-7).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, errors.New("json: unsupported value: " + strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// jsonSafe marks the ASCII bytes encoding/json copies into a string
// unescaped with HTML escaping on: printable ASCII except '"', '\\',
// '<', '>' and '&'.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune("\"\\<>&", rune(c))
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s as encoding/json does with HTML escaping on:
// short escapes for '"', '\\' and \b \f \n \r \t, \u00XX for the other
// control bytes and '<', '>', '&', \ufffd for each byte that is not
// UTF-8, and \u2028/\u2029 for the JavaScript line separators.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if jsonSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// bufPool recycles request and response buffers. A buffer grown past
// maxPooledBuf by an unusually large body is left to the collector rather
// than pinned in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 64 << 10

// getBuf takes an empty buffer from the pool.
func getBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// putBuf returns b, grown from *bp, to the pool.
func putBuf(bp *[]byte, b []byte) {
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}

// The Content-Type values the handlers send, each a one-element header
// slice assigned as is: Header.Set would allocate it per response. Their
// length equals their capacity, so a later Header.Add copies rather than
// writing into the shared array.
var (
	htmlType = []string{"text/html; charset=utf-8"}
	jsonType = []string{"application/json"}
)

// writeBody sends b as the whole response body in one Write and returns
// its buffer to the pool.
func writeBody(w http.ResponseWriter, contentType []string, bp *[]byte, b []byte) {
	w.Header()["Content-Type"] = contentType
	w.Write(b) // a failed write means the client is gone; nobody is left to tell
	putBuf(bp, b)
}

// The bid forms are read in place. A urlencoded body is read into a
// pooled buffer and its pairs are walked where they lie, as url.ParseQuery
// walks them; only a pair holding an escape is unescaped, and the five
// fields' values are copied out in one string. r.FormValue, which builds
// url.Values for the query and the body and reaches them through
// ParseMultipartForm, is the oracle FuzzBidForm holds the reader to, and
// the path any other body takes.

// bidForm is the values of the bid forms' fields, as r.FormValue returns
// them.
type bidForm struct {
	team, product, qty, clusters, limit string
}

// bidFields are bidForm's keys, in field order.
var bidFields = [...]string{"team", "product", "qty", "clusters", "limit"}

const formType = "application/x-www-form-urlencoded"

// maxFormBody is net/http's cap on a urlencoded body: ParseForm ignores a
// longer one.
const maxFormBody = 10 << 20

// formSpan is where a field's first value lies: bytes [lo, hi) of the
// body (inBody) or of the raw query (inQuery).
type formSpan struct {
	src    uint8
	lo, hi int
	esc    bool
}

const (
	inBody = 1 + iota
	inQuery
)

// readBidForm returns the bid fields of r as r.FormValue would: the first
// value of each key, the body's before the query's. A body that is not
// urlencoded, a request whose form is already parsed, and a method whose
// body ParseForm does not read all go through r.FormValue.
func readBidForm(r *http.Request) bidForm {
	if !formBody(r) {
		return formValues(r)
	}
	bp := getBuf()
	body, ok := readFormBody(r.Body, *bp)
	var sp [len(bidFields)]formSpan
	if ok {
		scanForm(body, inBody, &sp)
	}
	scanForm(r.URL.RawQuery, inQuery, &sp)
	// The values, unescaped, go after the body; one string holds them all.
	b, n := body, len(body)
	var ends [len(bidFields)]int
	for i, s := range sp {
		switch s.src {
		case inBody:
			b = appendFormValue(b, b[s.lo:s.hi], s.esc)
		case inQuery:
			b = appendFormValue(b, r.URL.RawQuery[s.lo:s.hi], s.esc)
		}
		ends[i] = len(b) - n
	}
	all := string(b[n:])
	putBuf(bp, b)
	return bidForm{all[:ends[0]], all[ends[0]:ends[1]], all[ends[1]:ends[2]], all[ends[2]:ends[3]], all[ends[3]:ends[4]]}
}

// formValues reads the bid fields with one r.FormValue call each: the
// fallback, and the oracle FuzzBidForm holds readBidForm to.
func formValues(r *http.Request) bidForm {
	var f [len(bidFields)]string
	for i, k := range bidFields {
		f[i] = r.FormValue(k)
	}
	return bidForm{f[0], f[1], f[2], f[3], f[4]}
}

// formBody reports whether ParseForm would read r's body as a urlencoded
// form and nothing has parsed it yet. The media type is parsed as
// parsePostForm parses it, whose result counts even with a bad parameter.
func formBody(r *http.Request) bool {
	if r.Form != nil || r.Method != http.MethodPost && r.Method != http.MethodPut && r.Method != http.MethodPatch {
		return false
	}
	ct := r.Header["Content-Type"]
	if len(ct) == 0 {
		return false
	}
	if ct[0] == formType {
		return true
	}
	mt, _, _ := mime.ParseMediaType(ct[0])
	return mt == formType
}

// readFormBody appends body to buf as ParseForm reads it; ok is false
// when ParseForm would ignore the body: a read fails, or it is longer than
// maxFormBody.
func readFormBody(body io.Reader, buf []byte) (_ []byte, ok bool) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case len(buf) > maxFormBody:
			return buf, false
		case err == io.EOF:
			return buf, true
		case err != nil:
			return buf, false
		}
	}
}

// scanForm records in sp where each bid field's first value lies in s.
// A field already found — in the body, when s is the query — is kept.
func scanForm[T string | []byte](s T, src uint8, sp *[len(bidFields)]formSpan) {
	for off := 0; off < len(s); {
		p := cutPair(s, off)
		off = p.next
		if !p.keep {
			continue
		}
		for i, name := range bidFields {
			if sp[i].src == 0 && keyIs(s[p.klo:p.khi], p.esc, name) {
				sp[i] = formSpan{src: src, lo: p.vlo, hi: p.vhi, esc: p.esc}
				break
			}
		}
	}
}

// queryValue returns the first value of key in the raw query string q, as
// url.ParseQuery(q).Get(key) does.
func queryValue(q, key string) string {
	for off := 0; off < len(q); {
		p := cutPair(q, off)
		off = p.next
		if p.keep && keyIs(q[p.klo:p.khi], p.esc, key) {
			if !p.esc {
				return q[p.vlo:p.vhi]
			}
			return string(appendFormValue(nil, q[p.vlo:p.vhi], true))
		}
	}
	return ""
}

// formPair is one '&'-separated pair of a form: its key is bytes
// [klo, khi), its value [vlo, vhi), and the next pair starts at next.
type formPair struct {
	klo, khi, vlo, vhi, next int
	// esc marks a pair holding '%' or '+', whose key and value must be
	// unescaped.
	esc bool
	// keep is whether url.ParseQuery keeps the pair: it is not empty,
	// holds no ';', and every '%' starts a valid escape.
	keep bool
}

// cutPair reads the pair of s that starts at off.
func cutPair[T string | []byte](s T, off int) formPair {
	p := formPair{klo: off, khi: -1}
	semi := false
	i := off
	for ; i < len(s) && s[i] != '&'; i++ {
		switch s[i] {
		case '=':
			if p.khi < 0 {
				p.khi = i
			}
		case ';':
			semi = true
		case '%', '+':
			p.esc = true
		}
	}
	p.vlo, p.vhi, p.next = i, i, i+1
	if p.khi < 0 {
		p.khi = i
	} else {
		p.vlo = p.khi + 1
	}
	p.keep = i > off && !semi && (!p.esc || validEscapes(s[p.klo:p.khi]) && validEscapes(s[p.vlo:p.vhi]))
	return p
}

// validEscapes reports whether every '%' in s starts a two-hex-digit
// escape, as url.QueryUnescape requires.
func validEscapes[T string | []byte](s T) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '%' {
			if i+2 >= len(s) || !isHex(s[i+1]) || !isHex(s[i+2]) {
				return false
			}
			i += 2
		}
	}
	return true
}

// keyIs reports whether the raw key k, unescaped when esc, is name.
func keyIs[T string | []byte](k T, esc bool, name string) bool {
	if !esc {
		if len(k) != len(name) {
			return false
		}
		for i := 0; i < len(k); i++ {
			if k[i] != name[i] {
				return false
			}
		}
		return true
	}
	n := len(k) // unescaped, each valid escape is one byte
	for i := 0; i < len(k); i++ {
		if k[i] == '%' {
			n -= 2
		}
	}
	if n != len(name) {
		return false
	}
	var buf [16]byte
	return string(appendFormValue(buf[:0], k, true)) == name
}

// appendFormValue appends the raw value s to b, unescaped when esc: '+'
// is a space and %XX a byte. Its escapes are valid.
func appendFormValue[T string | []byte](b []byte, s T, esc bool) []byte {
	if !esc {
		return append(b, s...)
	}
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '+':
			b = append(b, ' ')
		case '%':
			b = append(b, unhex(s[i+1])<<4|unhex(s[i+2]))
			i += 2
		default:
			b = append(b, c)
		}
	}
	return b
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func unhex(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	}
	return c - 'a' + 10
}
