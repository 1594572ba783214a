package cluster

import "testing"

// FuzzParseVector checks the parser clients feed server-sent vectors
// through: arbitrary input either errors or yields a vector whose
// canonical String form parses back to itself, and every parsed vector
// dominates itself.
func FuzzParseVector(f *testing.F) {
	for _, seed := range []string{"", "r0:1", "r0:1,r1:2", "r1:2,r0:1", "r0:0", "r0:01,r0:3", ":1", "r0:", "r0", "r0:-1", "r0:1:2", ",", "a b:18446744073709551615"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, err := ParseVector(s)
		if err != nil {
			return
		}
		canon := v.String()
		back, err := ParseVector(canon)
		if err != nil {
			t.Fatalf("ParseVector(%q) ok, but its String %q does not parse: %v", s, canon, err)
		}
		if got := back.String(); got != canon {
			t.Fatalf("round trip of %q: %q -> %q", s, canon, got)
		}
		if !v.Dominates(v) {
			t.Fatalf("vector %q does not dominate itself", canon)
		}
	})
}
