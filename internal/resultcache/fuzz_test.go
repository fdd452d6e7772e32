package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// fuzzValue mirrors the shapes the study caches: nested structs, a map
// of pointers (profile snapshots) and a slice of structs (run ladders).
type fuzzValue struct {
	Head   payload
	Blocks map[int]*payload
	Runs   []payload
}

// FuzzDecodeEntry feeds Lookup arbitrary entry files. With sealed set,
// the fuzzed bytes become the value under a valid header whose sum
// matches, so the gob decoder itself sees hostile input; otherwise they
// are the whole file. Lookup must never panic, and every rejection must
// be a counted miss and error (the entry file exists, so no rejection
// is an ordinary cold miss).
func FuzzDecodeEntry(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	k := testKey()
	if err := s.Put(k, fuzzValue{
		Head:   payload{Name: "x", N: 3, Xs: []float64{0.5}, Inner: map[string]int{"a": 1}},
		Blocks: map[int]*payload{4: {Name: "b"}, 8: {}},
		Runs:   []payload{{N: 1}, {Xs: []float64{}}},
	}); err != nil {
		f.Fatal(err)
	}
	path := s.path(k)
	entry, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	_, value, _ := bytes.Cut(entry, []byte{'\n'})
	f.Add(entry, false)
	f.Add(value, true)
	f.Add(value[:len(value)/2], true)
	f.Add([]byte(nil), true)
	f.Add([]byte("not json at all"), false)
	f.Add([]byte(`{"schema":2,"key":"k","sum":"","value":{}}`+"\n"), false)

	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		if sealed {
			sum := sha256.Sum256(data)
			h, err := json.Marshal(header{Schema: SchemaVersion, Key: k.Fingerprint(), Sum: hex.EncodeToString(sum[:])})
			if err != nil {
				t.Fatal(err)
			}
			data = append(append(h, '\n'), data...)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		before := s.Counters()
		var v fuzzValue
		hit := s.Lookup(k, &v)
		after := s.Counters()
		if hit {
			if after.Hits != before.Hits+1 || after.Errors != before.Errors {
				t.Fatalf("hit counted %+v -> %+v", before, after)
			}
			return
		}
		if after.Misses != before.Misses+1 || after.Errors != before.Errors+1 {
			t.Fatalf("rejected entry counted %+v -> %+v, want one miss and one error", before, after)
		}
		if !reflect.DeepEqual(v, fuzzValue{}) {
			t.Fatalf("rejected entry left partial data in the target: %+v", v)
		}
	})
}
