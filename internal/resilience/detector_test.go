package resilience

import "testing"

func TestDetectorWalk(t *testing.T) {
	cases := []struct {
		name     string
		outcomes []bool
		want     []MemberState
	}{
		{
			name:     "defaults walk live-suspect-dead",
			outcomes: []bool{false, false, false, false},
			want:     []MemberState{MemberLive, MemberSuspect, MemberSuspect, MemberDead},
		},
		{
			name:     "success resets the miss count",
			outcomes: []bool{false, true, false, false, false, false},
			want: []MemberState{MemberLive, MemberLive, MemberLive, MemberSuspect,
				MemberSuspect, MemberDead},
		},
		{
			name:     "dead member revives on one success",
			outcomes: []bool{false, false, false, false, true},
			want: []MemberState{MemberLive, MemberSuspect, MemberSuspect,
				MemberDead, MemberLive},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := new(Detector)
			for i, ok := range tc.outcomes {
				if got := d.Observe(ok); got != tc.want[i] {
					t.Fatalf("step %d: Observe(%v) = %v, want %v", i, ok, got, tc.want[i])
				}
				if got := d.State(); got != tc.want[i] {
					t.Fatalf("step %d: State() = %v, want %v", i, got, tc.want[i])
				}
			}
		})
	}
}

func TestDetectorDraining(t *testing.T) {
	d := &Detector{}
	d.Observe(false)
	d.Observe(false)
	if got := d.ObserveDraining(); got != MemberDraining {
		t.Fatalf("ObserveDraining = %v", got)
	}
	if d.Misses() != 0 {
		t.Fatalf("draining should reset misses, got %d", d.Misses())
	}
	// Draining is sticky until the next observation.
	if got := d.Observe(true); got != MemberLive {
		t.Fatalf("post-drain success = %v, want live", got)
	}
}

func TestMemberStateString(t *testing.T) {
	for s, want := range map[MemberState]string{
		MemberLive: "live", MemberSuspect: "suspect",
		MemberDead: "dead", MemberDraining: "draining",
		MemberState(9): "unknown",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}
