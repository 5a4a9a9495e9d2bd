package flock_test

// The knob gate: no option without a caller. Every exported field of the
// configuration structs below must be set by something that ships or
// measures — a tool under cmd/, the benchmark, an example, or the load
// driver — because a value only a test can set lets the suite pass in a
// configuration that never runs anywhere else. A field with no such setter
// is deleted, made a constant, or moved behind an unexported in-package
// test hook; it does not stay an option.

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"flock"
	"flock/internal/baseline/lockshare"
	"flock/internal/baseline/udrpc"
)

func TestEveryKnobHasACaller(t *testing.T) {
	// read returns the non-test Go source under dirs.
	read := func(dirs ...string) []byte {
		var src []byte
		for _, dir := range dirs {
			err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
					return err
				}
				b, err := os.ReadFile(path)
				src = append(append(src, b...), '\n')
				return err
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return src
	}
	shipped := read("cmd", "bench", "examples", "internal/loadgen")
	// A call's plan is also the cluster layer's to set: the replication
	// forwarder is what gives a frame its Budget.
	callers := append(read("internal/cluster"), shipped...)
	// rnic.Config is not listed: what sets its exported fields (Node,
	// CacheSize, RCRetries) is internal/core, outside the scanned trees.
	for _, k := range []struct {
		typ reflect.Type
		src []byte
	}{
		{reflect.TypeOf((*flock.Options)(nil)).Elem(), shipped},
		{reflect.TypeOf((*flock.CallOptions)(nil)).Elem(), callers},
		{reflect.TypeOf((*flock.ClusterService)(nil)).Elem(), shipped},
		{reflect.TypeOf((*flock.ReplTuning)(nil)).Elem(), shipped},
		{reflect.TypeOf((*flock.ClusterRouter)(nil)).Elem(), shipped},
		{reflect.TypeOf((*flock.ClusterMembership)(nil)).Elem(), shipped},
		{reflect.TypeOf((*udrpc.Config)(nil)).Elem(), shipped},
		{reflect.TypeOf((*lockshare.Config)(nil)).Elem(), shipped},
	} {
		for i := 0; i < k.typ.NumField(); i++ {
			f := k.typ.Field(i)
			if !f.IsExported() {
				continue
			}
			// A composite-literal key or an assignment through a selector. A
			// same-named field of another struct reads as a setter too; the
			// gate can call a dead knob alive that way, never a live one dead.
			set := regexp.MustCompile(`\b` + f.Name + `:|\.` + f.Name + `\s*=[^=]`)
			if !set.Match(k.src) {
				t.Errorf("%s.%s is set by nothing under cmd/, bench/, examples/ or internal/loadgen (nor, for CallOptions, internal/cluster)", k.typ, f.Name)
			}
		}
	}
}
