package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clustermarket/internal/resource"
)

// denseClass and denseValidate are the dense-vector Class and Validate
// that Bid carried before the packed form existed, kept verbatim as the
// reference the packed implementations must agree with: same verdict,
// same error text, including the offending component's index.
func denseClass(b *Bid) Class {
	dir := 0
	for _, q := range b.Bundles {
		d := q.PureDirection()
		switch {
		case d == 0:
			return Trader
		case dir == 0:
			dir = d
		case d != dir:
			return Trader
		}
	}
	if dir < 0 {
		return PureSeller
	}
	return PureBuyer
}

func denseValidate(b *Bid, r int) error {
	if b.User == "" {
		return errors.New("core: bid has empty user")
	}
	if len(b.Bundles) == 0 {
		return fmt.Errorf("core: bid %q has no bundles", b.User)
	}
	if math.IsNaN(b.Limit) || math.IsInf(b.Limit, 0) {
		return fmt.Errorf("core: bid %q has non-finite limit", b.User)
	}
	if len(b.BundleLimits) > 0 {
		if len(b.BundleLimits) != len(b.Bundles) {
			return fmt.Errorf("core: bid %q has %d bundle limits for %d bundles",
				b.User, len(b.BundleLimits), len(b.Bundles))
		}
		for i, l := range b.BundleLimits {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				return fmt.Errorf("core: bid %q bundle limit %d is non-finite", b.User, i)
			}
		}
	}
	for i, q := range b.Bundles {
		if len(q) != r {
			return fmt.Errorf("core: bid %q bundle %d has %d components, want %d", b.User, i, len(q), r)
		}
		if err := q.Validate(); err != nil {
			return fmt.Errorf("core: bid %q bundle %d: %v", b.User, i, err)
		}
		if q.IsZero() {
			return fmt.Errorf("core: bid %q bundle %d is empty", b.User, i)
		}
	}
	if denseClass(b) == PureSeller {
		for i := range b.Bundles {
			if b.LimitFor(i) > 0 {
				return fmt.Errorf("core: pure seller %q has positive limit %g (minimum receipt is encoded as a negative limit)", b.User, b.LimitFor(i))
			}
		}
	}
	return nil
}

// hostileBid draws a bid from a distribution that hits every Validate
// branch: mostly sparse well-formed bundles, salted with NaN, ±Inf, −0,
// all-zero and wrong-length bundles, mixed directions within and across
// bundles, missing users, non-finite limits and mis-sized limit vectors.
func hostileBid(rng *rand.Rand, r int) *Bid {
	b := &Bid{User: "u", Limit: float64(rng.Intn(200) - 50)}
	if rng.Intn(20) == 0 {
		b.User = ""
	}
	weird := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	if rng.Intn(15) == 0 {
		b.Limit = weird[rng.Intn(3)]
	}
	side := 1.0
	if rng.Intn(3) == 0 {
		side = -1
		b.Limit = -math.Abs(b.Limit)
	}
	// few is 1–3, and one time in ten 0: no bundles, or an empty bundle.
	few := func() int {
		if rng.Intn(10) == 0 {
			return 0
		}
		return 1 + rng.Intn(3)
	}
	for n := few(); n > 0; n-- {
		q := make(resource.Vector, r)
		if rng.Intn(12) == 0 {
			q = make(resource.Vector, r+rng.Intn(3)-1)
		}
		for k := few(); k > 0 && len(q) > 0; k-- {
			v := side * float64(1+rng.Intn(9))
			switch rng.Intn(12) {
			case 0:
				v = -v // a trader component
			case 1:
				v = weird[rng.Intn(len(weird))]
			}
			q[rng.Intn(len(q))] = v
		}
		b.Bundles = append(b.Bundles, q)
	}
	if rng.Intn(3) == 0 {
		n := len(b.Bundles)
		if rng.Intn(6) == 0 {
			n++
		}
		for i := 0; i < n; i++ {
			l := float64(rng.Intn(100)) * side
			if rng.Intn(15) == 0 {
				l = weird[rng.Intn(3)]
			}
			b.BundleLimits = append(b.BundleLimits, l)
		}
	}
	return b
}

// TestPackedValidateAndClassMatchDense: over random hostile bids the
// packed Validate and Class return exactly what the dense reference
// does, whether the bid was packed at the door or is packed privately by
// the call, and NewAuction rejects with the same text.
func TestPackedValidateAndClassMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const r = 7
	reg := resource.NewRegistry()
	for i := 0; i < r; i++ {
		reg.Add(resource.Pool{Cluster: fmt.Sprint("c", i), Dim: resource.CPU})
	}
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	rejected := 0
	for i := 0; i < 20000; i++ {
		b := hostileBid(rng, r)
		wantClass, wantErr := denseClass(b), text(denseValidate(b, r))
		if wantErr != "<nil>" {
			rejected++
		}
		packed := *b
		packed.Pack()
		for _, c := range []struct {
			name string
			bid  *Bid
		}{{"unpacked", b}, {"packed", &packed}} {
			if got := c.bid.Class(); got != wantClass {
				t.Fatalf("bid %d (%s) %+v: Class = %v, dense reference %v", i, c.name, b, got, wantClass)
			}
			if got := text(c.bid.Validate(r)); got != wantErr {
				t.Fatalf("bid %d (%s) %+v:\n Validate = %s\n dense    = %s", i, c.name, b, got, wantErr)
			}
			_, err := NewAuction(reg, []*Bid{c.bid}, Config{Start: reg.Zero()})
			if got := text(err); got != wantErr {
				t.Fatalf("bid %d (%s) %+v:\n NewAuction = %s\n dense      = %s", i, c.name, b, got, wantErr)
			}
		}
	}
	if rejected < 2000 || rejected > 18000 {
		t.Fatalf("%d of 20000 bids rejected; the generator no longer covers both verdicts", rejected)
	}
}

// TestPackedFormLifecycle pins what Pack, Unpacked and the identity
// guard promise: the packed form is in ascending pool index with ±0
// skipped, NewAuction reads a packed bid without writing it,
// Unpacked never writes the original, and a copy whose Bundles were
// replaced is packed afresh instead of trusting the stale form.
func TestPackedFormLifecycle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	b := &Bid{User: "u", Limit: 50, Bundles: []resource.Vector{{0, 3, negZero, 2}, {4, 0, 0, 0}}}
	if b.Packed() {
		t.Fatal("fresh bid reports a packed form")
	}
	b.Pack()
	want := []sparseBundle{
		{idx: []int32{1, 3}, val: []float64{3, 2}},
		{idx: []int32{0}, val: []float64{4}},
	}
	if !reflect.DeepEqual(b.packed.bundles, want) {
		t.Fatalf("packed = %+v, want %+v", b.packed.bundles, want)
	}
	if px := NewProxy(b); &px.sparse[0] != &b.packed.bundles[0] {
		t.Error("NewProxy re-packed a bid that carries its packed form")
	}

	reg := resource.NewStandardRegistry("c")
	reg.Add(resource.Pool{Cluster: "d", Dim: resource.CPU})
	before := *b
	if _, err := NewAuction(reg, []*Bid{b}, Config{Start: reg.Zero()}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, *b) {
		t.Error("NewAuction wrote into the bid it was handed")
	}

	u := b.Unpacked()
	if u == b || u.Packed() || !b.Packed() {
		t.Errorf("Unpacked: same pointer %v, copy packed %v, original packed %v", u == b, u.Packed(), b.Packed())
	}
	if u.Unpacked() != u {
		t.Error("Unpacked of an unpacked bid should be the bid itself")
	}
	if u.User != b.User || &u.Bundles[0] != &b.Bundles[0] {
		t.Error("Unpacked must share everything but the packed form")
	}

	// A struct copy with replaced Bundles carries a stale packed pointer.
	stale := *b
	stale.Bundles = []resource.Vector{{-1, 0, 0, 0}}
	stale.Limit = -1
	if got := stale.Class(); got != PureSeller {
		t.Errorf("stale packed form trusted: Class = %v, want seller", got)
	}
	if px := NewProxy(&stale); len(px.sparse) != 1 || px.sparse[0].val[0] != -1 {
		t.Errorf("stale packed form trusted by NewProxy: %+v", px.sparse)
	}
}
