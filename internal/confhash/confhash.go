// Package confhash gives every experiment a content-addressed identity: a
// stable hash over the full machine configuration plus the benchmark name
// and input scale. Two semantically identical sim.Config values — same
// knobs, regardless of which constructor produced them or what display
// Name they carry — hash equal; changing any knob (cache geometry, clock,
// integrity settings like Deadline or an attached fault campaign) changes
// the hash.
//
// The hash is the shared currency of the result-caching layers: the sweep
// runner in internal/tables keys its singleflight memoisation on it, the
// tarserved job server keys its LRU result cache on it, and cmd/tartables
// -json stamps it onto every exported cell so CLI and API artifacts are
// comparable by identity, not provenance.
package confhash

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"reflect"
	"sort"

	"repro/internal/sim"
)

// Config returns the canonical digest of a machine configuration. The
// display Name is excluded (it is presentation, not semantics): sim.T()
// renamed "T-prime" hashes the same, while flipping any actual knob —
// including the integrity layer's Check/Deadline/Watchdog/Faults — does
// not.
func Config(cfg *sim.Config) string {
	h := sha256.New()
	c := *cfg
	c.Name = ""
	writeValue(h, reflect.ValueOf(&c).Elem())
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// Key returns the content address of one experiment: benchmark × input
// scale × machine configuration. It is the memoisation key in
// internal/tables and the cache key in the tarserved server.
func Key(bench, scale string, cfg *sim.Config) string {
	h := sha256.New()
	fmt.Fprintf(h, "bench=%s;scale=%s;cfg=%s", bench, scale, Config(cfg))
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// writeValue streams a canonical encoding of v. Struct fields are visited
// in declaration order with their names (so reordering-with-renaming cannot
// collide), pointers distinguish nil from zero values, maps are emitted in
// sorted key order, and unexported fields are skipped (the only ones in a
// configuration tree are the per-chip fault injectors, which carry no
// caller-visible state).
func writeValue(w io.Writer, v reflect.Value) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "&")
		writeValue(w, v.Elem())
	case reflect.Struct:
		t := v.Type()
		io.WriteString(w, "{")
		for i := 0; i < t.NumField(); i++ {
			if !t.Field(i).IsExported() {
				continue
			}
			fmt.Fprintf(w, "%s=", t.Field(i).Name)
			writeValue(w, v.Field(i))
			io.WriteString(w, ";")
		}
		io.WriteString(w, "}")
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		io.WriteString(w, "[")
		for i := 0; i < v.Len(); i++ {
			writeValue(w, v.Index(i))
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.Map:
		if v.IsNil() {
			io.WriteString(w, "nil")
			return
		}
		keys := make([]string, 0, v.Len())
		byKey := make(map[string]reflect.Value, v.Len())
		for _, k := range v.MapKeys() {
			s := fmt.Sprintf("%v", k.Interface())
			keys = append(keys, s)
			byKey[s] = v.MapIndex(k)
		}
		sort.Strings(keys)
		io.WriteString(w, "map[")
		for _, k := range keys {
			fmt.Fprintf(w, "%s:", k)
			writeValue(w, byKey[k])
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case reflect.Func, reflect.Chan:
		// Configurations must stay pure data; a callback smuggled into one
		// has no canonical encoding and would silently alias distinct
		// experiments.
		panic(fmt.Sprintf("confhash: cannot hash %s field", v.Kind()))
	default:
		fmt.Fprintf(w, "%v", v)
	}
}
