package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"clustermarket/internal/resource"
)

// denseClass and denseValidate are Class and Validate over the R-length
// vectors, the reference the row implementations must agree with: same
// verdict, same error text, including the offending component's index.
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

// wireBid is the dense wire form a Bid has always had: its exported
// fields under the default encoding.
type wireBid struct {
	User         string
	Bundles      []resource.Vector
	Limit        float64
	BundleLimits []float64
}

// TestPackedValidateAndClassMatchDense: over random hostile bids a
// rows-only bid (Pack dropped its vectors) and its dense twin return
// exactly what the dense reference does from Validate and Class, are
// rejected by NewAuction with the same text or clear to the same Result,
// and the rows-only bid marshals to the bytes the dense one always did —
// except that a −0 component, which the clock ignores, is booked as
// absent and comes back as 0.
func TestPackedValidateAndClassMatchDense(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const r = 7
	reg := resource.NewRegistry()
	for i := 0; i < r; i++ {
		reg.Add(resource.Pool{Cluster: fmt.Sprint("c", i), Dim: resource.CPU})
	}
	seller := &Bid{User: "op", Limit: -0.001, Bundles: []resource.Vector{{-6, -6, -6, -6, -6, -6, -6}}}
	text := func(err error) string {
		if err == nil {
			return "<nil>"
		}
		return err.Error()
	}
	rejected, cleared := 0, 0
	for i := 0; i < 20000; i++ {
		b := hostileBid(rng, r)
		wantClass, wantErr := denseClass(b), text(denseValidate(b, r))
		if wantErr != "<nil>" {
			rejected++
		}
		rows := *b
		rows.Pack()
		if len(b.Bundles) > 0 && (rows.Bundles != nil || rows.NumBundles() != len(b.Bundles)) {
			t.Fatalf("bid %d: Pack left Bundles %v, NumBundles %d of %d", i, rows.Bundles, rows.NumBundles(), len(b.Bundles))
		}
		var results [2]*Result
		for k, c := range []struct {
			name string
			bid  *Bid
		}{{"dense", b}, {"rows", &rows}} {
			if got := c.bid.Class(); got != wantClass {
				t.Fatalf("bid %d (%s) %+v: Class = %v, dense reference %v", i, c.name, b, got, wantClass)
			}
			if got := text(c.bid.Validate(r)); got != wantErr {
				t.Fatalf("bid %d (%s) %+v:\n Validate = %s\n dense    = %s", i, c.name, b, got, wantErr)
			}
			a, err := NewAuction(reg, []*Bid{c.bid, seller}, Config{Start: reg.Zero(), MaxRounds: 40})
			if got := text(err); got != wantErr {
				t.Fatalf("bid %d (%s) %+v:\n NewAuction = %s\n dense      = %s", i, c.name, b, got, wantErr)
			}
			if err == nil {
				res, runErr := a.Run()
				if runErr != nil && !errors.Is(runErr, ErrNoConvergence) {
					t.Fatalf("bid %d (%s): Run: %v", i, c.name, runErr)
				}
				results[k] = res
			}
		}
		if (results[0] == nil) != (results[1] == nil) {
			t.Fatalf("bid %d %+v: only one of the rows-only and dense bids cleared", i, b)
		}
		if results[0] != nil {
			mustEqualResults(t, fmt.Sprintf("bid %d %+v: dense vs rows-only", i, b), results[0], results[1])
		}
		if results[0] != nil && results[0].Converged {
			cleared++
		}

		ref := wireBid{b.User, make([]resource.Vector, len(b.Bundles)), b.Limit, b.BundleLimits}
		if b.Bundles == nil {
			ref.Bundles = nil
		}
		for j, q := range b.Bundles {
			ref.Bundles[j] = q.Clone()
			for m, v := range q {
				if v == 0 {
					ref.Bundles[j][m] = 0 // the documented −0 → absent
				}
			}
		}
		want, wantJSONErr := json.Marshal(ref)
		got, gotJSONErr := json.Marshal(&rows)
		if (wantJSONErr == nil) != (gotJSONErr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("bid %d: rows-only bid marshals to\n %s (%v)\ndense wire form\n %s (%v)", i, got, gotJSONErr, want, wantJSONErr)
		}
		if wantJSONErr == nil {
			var back Bid
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("bid %d: decode: %v", i, err)
			}
			back.Pack()
			if !reflect.DeepEqual(back, rows) {
				t.Fatalf("bid %d: decode + Pack = %+v, want %+v", i, back, rows)
			}
		}
	}
	if rejected < 2000 || rejected > 18000 {
		t.Fatalf("%d of 20000 bids rejected; the generator no longer covers both verdicts", rejected)
	}
	if cleared < 1000 {
		t.Fatalf("only %d of 20000 auctions cleared; the Result comparison is vacuous", cleared)
	}
}

// TestPackedFormLifecycle pins the single form: Pack and PackSparse lay
// the rows out in ascending pool index with ±0 skipped and drop Bundles,
// neither keeps or writes the vectors it was given, NewAuction writes no
// bid it is handed, the accessors rebuild what was packed, and a struct
// copy that is given Bundles again is read from them.
func TestPackedFormLifecycle(t *testing.T) {
	negZero := math.Copysign(0, -1)
	mine := []resource.Vector{{0, 3, negZero, 2}, {4, 0, 0, 0}}
	caller := &Bid{User: "u", Limit: 50, Bundles: mine}
	b := *caller
	b.Pack()
	want := bidRows{idx: []int32{1, 3, 0 /* ends: */, 2, 3}, val: []float64{3, 2, 4}, n: 2, width: 4}
	if b.Bundles != nil || !reflect.DeepEqual(b.rows, want) {
		t.Fatalf("Pack: Bundles %v rows %+v, want nil and %+v", b.Bundles, b.rows, want)
	}
	if len(caller.Bundles) != 2 || caller.rows.n != 0 || !math.Signbit(mine[0][2]) {
		t.Fatal("Pack of a struct copy wrote the caller's bid or vectors")
	}
	mine[0][1], mine[1][0] = 99, 99 // the caller reuses its vectors
	if !reflect.DeepEqual(b.rows, want) {
		t.Fatal("packed rows alias the caller's vectors")
	}
	mine[0][1], mine[1][0] = 3, 4

	if b.NumBundles() != 2 || !reflect.DeepEqual(b.Bundle(0), resource.Vector{0, 3, 0, 2}) || !reflect.DeepEqual(b.Bundle(1), mine[1]) {
		t.Errorf("accessors: %d bundles, %v, %v", b.NumBundles(), b.Bundle(0), b.Bundle(1))
	}
	if pools, qty := b.Row(0); !reflect.DeepEqual(pools, []int32{1, 3}) || !reflect.DeepEqual(qty, []float64{3, 2}) {
		t.Errorf("Row(0) = %v %v", pools, qty)
	}
	if pools, qty := caller.Row(1); !reflect.DeepEqual(pools, []int32{0}) || !reflect.DeepEqual(qty, []float64{4}) {
		t.Errorf("Row(1) of the dense bid = %v %v", pools, qty)
	}

	// Pairs in any order, a zero quantity among them: same rows as Pack.
	var s Bid
	s.PackSparse(4, []int{3, 4}, []int32{3, 2, 1, 0}, []float64{2, 0, 3, 4})
	if !reflect.DeepEqual(s.rows, want) {
		t.Errorf("PackSparse rows %+v, want %+v", s.rows, want)
	}

	// Bundles of different widths keep each one's width behind the ends.
	ragged := Bid{User: "u", Limit: 1, Bundles: []resource.Vector{{1, 0}, {0, 0, 2}}}
	ragged.Pack()
	if w := (bidRows{idx: []int32{0, 2, 1, 2, 2, 3}, val: []float64{1, 2}, n: 2, width: -1}); !reflect.DeepEqual(ragged.rows, w) {
		t.Errorf("ragged rows %+v, want %+v", ragged.rows, w)
	}
	if err := ragged.Validate(2); err == nil || err.Error() != `core: bid "u" bundle 1 has 3 components, want 2` {
		t.Errorf("ragged Validate = %v", err)
	}

	reg := resource.NewStandardRegistry("c")
	reg.Add(resource.Pool{Cluster: "d", Dim: resource.CPU})
	before, beforeCaller := b, *caller
	a, err := NewAuction(reg, []*Bid{&b, caller}, Config{Start: reg.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, b) || !reflect.DeepEqual(beforeCaller, *caller) {
		t.Error("NewAuction wrote into a bid it was handed")
	}
	if a.bids[0] != &b {
		t.Error("NewAuction copied a booked bid")
	}
	if p := a.bids[1]; p == caller || p.Bundles != nil || !reflect.DeepEqual(p.rows, b.rows) {
		t.Errorf("NewAuction's copy of the dense bid is not packed: %+v", p)
	}

	// A copy of a booked bid that is given Bundles again is read from them.
	again := b
	again.Bundles = []resource.Vector{{-1, 0, 0, 0}}
	again.Limit = -1
	if got := again.Class(); got != PureSeller {
		t.Errorf("booked rows trusted over Bundles: Class = %v, want seller", got)
	}
	a, err = NewAuction(reg, []*Bid{&again}, Config{Start: reg.Zero()})
	if err != nil {
		t.Fatal(err)
	}
	if rw := a.bids[0].rows; rw.n != 1 || rw.val[0] != -1 {
		t.Errorf("booked rows trusted over Bundles by NewAuction: %+v", rw)
	}
}
