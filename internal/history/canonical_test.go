package history

import (
	"strings"
	"testing"
)

func TestCanonicalRenumbersByFirstAppearance(t *testing.T) {
	h, err := Parse("inv t7 E.exchange 3\ninv t2 E.exchange 4\nres t7 E.exchange (true,4)\nres t2 E.exchange (true,3)")
	if err != nil {
		t.Fatal(err)
	}
	c := Canonical(h)
	want := "inv t0 E.exchange 3\ninv t1 E.exchange 4\nres t0 E.exchange (true,4)\nres t1 E.exchange (true,3)\n"
	if Format(c) != want {
		t.Errorf("Canonical =\n%s\nwant\n%s", Format(c), want)
	}
	// Canonical must not mutate its input.
	if h[0].Thread != ThreadID(7) {
		t.Errorf("Canonical mutated its input: thread = %v", h[0].Thread)
	}
}

func TestFingerprintInvariantUnderThreadRenaming(t *testing.T) {
	a, err := Parse("inv t1 E.exchange 3\ninv t2 E.exchange 4\nres t1 E.exchange (true,4)\nres t2 E.exchange (true,3)")
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("inv t40 E.exchange 3\ninv t9 E.exchange 4\nres t40 E.exchange (true,4)\nres t9 E.exchange (true,3)")
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) != Fingerprint(b) {
		t.Error("fingerprints should agree up to thread renaming")
	}
	// Changing a value must change the fingerprint.
	c, err := Parse("inv t1 E.exchange 5\ninv t2 E.exchange 4\nres t1 E.exchange (true,4)\nres t2 E.exchange (true,5)")
	if err != nil {
		t.Fatal(err)
	}
	if Fingerprint(a) == Fingerprint(c) {
		t.Error("different histories should not collide")
	}
}

// TestFingerprintSeparatesObjectAndMethod pins that the fingerprint
// encodes the object and the method as separate fields: object "a.b"
// with method "c" and object "a" with method "b.c" render to the same
// text line, but they are different operations.
func TestFingerprintSeparatesObjectAndMethod(t *testing.T) {
	a := History{Inv(1, "a.b", "c", Int(1)), Res(1, "a.b", "c", Bool(true))}
	b := History{Inv(1, "a", "b.c", Int(1)), Res(1, "a", "b.c", Bool(true))}
	if Format(a) != Format(b) {
		t.Fatalf("the two histories should render alike:\n%s\n%s", Format(a), Format(b))
	}
	if Fingerprint(a) == Fingerprint(b) {
		t.Error("object a.b method c and object a method b.c share a fingerprint")
	}
}

// TestFingerprintMatchesCanonical pins that renaming on the fly hashes
// the same thing as renaming first.
func TestFingerprintMatchesCanonical(t *testing.T) {
	h := exchangeHistory(50, 5)
	if Fingerprint(h) != Fingerprint(Canonical(h)) {
		t.Error("Fingerprint(h) != Fingerprint(Canonical(h))")
	}
}

// exchangeHistory builds a complete history of n events over the
// given number of threads, each thread exchanging in turn.
func exchangeHistory(n, threads int) History {
	h := make(History, 0, n)
	for i := 0; len(h) < n; i++ {
		th := ThreadID(100 + i%threads)
		h = append(h,
			Inv(th, "E", "exchange", Int(int64(i))),
			Res(th, "E", "exchange", Pair(false, int64(i))))
	}
	return h[:n]
}

// TestFingerprintAllocsIndependentOfLength pins that Fingerprint streams
// the history into the hash: a 10,000-event history allocates exactly
// as often as a 1,000-event one over the same threads, and at most 8
// times.
func TestFingerprintAllocsIndependentOfLength(t *testing.T) {
	small, large := exchangeHistory(1_000, 4), exchangeHistory(10_000, 4)
	a := testing.AllocsPerRun(20, func() { _ = Fingerprint(small) })
	b := testing.AllocsPerRun(20, func() { _ = Fingerprint(large) })
	if a != b || b > 8 {
		t.Errorf("Fingerprint allocates %v times for 1,000 events and %v for 10,000; want equal and at most 8", a, b)
	}
}

func TestParseFileLimitedBounds(t *testing.T) {
	src := "# header\ninv t1 E.exchange 3\nres t1 E.exchange (true,4)\ninv t2 E.exchange 4\n"
	if _, err := ParseFileLimited("h.txt", src, Limits{MaxEvents: 2}); err == nil {
		t.Fatal("event limit should reject the third event")
	} else if !strings.HasPrefix(err.Error(), "h.txt:4: ") {
		t.Errorf("event-limit error should cite the offending line, got %q", err)
	}
	if _, err := ParseFileLimited("h.txt", src, Limits{MaxBytes: 10}); err == nil {
		t.Fatal("byte limit should reject the input")
	} else if !strings.Contains(err.Error(), "limit is 10") {
		t.Errorf("byte-limit error should name the limit, got %q", err)
	}
	h, err := ParseFileLimited("h.txt", src, Limits{MaxBytes: len(src), MaxEvents: 3})
	if err != nil || len(h) != 3 {
		t.Fatalf("limits at the boundary should accept: %v (len %d)", err, len(h))
	}
}
