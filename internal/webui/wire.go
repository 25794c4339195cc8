package webui

import (
	"errors"
	"fmt"
	"html/template"
	"math"
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

// bufPool recycles response buffers. A buffer grown past maxPooledBuf
// by an unusually large response is left to the collector rather than
// pinned in the pool.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

const maxPooledBuf = 64 << 10

// getBuf takes an empty response buffer from the pool.
func getBuf() *[]byte {
	bp := bufPool.Get().(*[]byte)
	*bp = (*bp)[:0]
	return bp
}

// writeBody sends b as the whole response body in one Write and returns
// its buffer to the pool.
func writeBody(w http.ResponseWriter, contentType string, bp *[]byte, b []byte) {
	w.Header().Set("Content-Type", contentType)
	w.Write(b) // a failed write means the client is gone; nobody is left to tell
	if cap(b) <= maxPooledBuf {
		*bp = b
		bufPool.Put(bp)
	}
}
