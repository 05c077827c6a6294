package qos

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzQoSParse feeds arbitrary documents to Parse. It must never panic, and
// a config it accepts must re-marshal and parse back to an equal config
// whose every tenant cap is a non-negative Duration. The committed corpus
// in testdata/fuzz holds the max_ttl_ms values a Duration conversion wraps
// on.
func FuzzQoSParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, doc []byte) {
		c, err := Parse(doc)
		if err != nil {
			return
		}
		for _, tn := range c.Tenants {
			if tn.MaxTTL() < 0 {
				t.Fatalf("tenant %q: max_ttl_ms %d gives MaxTTL %v", tn.ID, tn.MaxTTLMs, tn.MaxTTL())
			}
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("marshal accepted config: %v", err)
		}
		again, err := Parse(b)
		if err != nil {
			t.Fatalf("re-parse %s: %v", b, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("round trip changed the config: %+v -> %+v", c, again)
		}
	})
}
