package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestValidateFlags pins the upfront flag validation: every bad value is
// rejected with a message naming the offending flag before any dataset work,
// and the documented defaults pass.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		store   string
		lang    string
		par     int
		batch   int
		persons int
		timeout time.Duration
		trace   string
		want    string // substring of the usage message; "" means valid
	}{
		{name: "defaults", store: "vineyard", lang: "cypher", persons: 200},
		{name: "gart gremlin tuned", store: "gart", lang: "gremlin", par: 8, batch: 512, persons: 50, timeout: time.Second},
		{name: "livegraph", store: "livegraph", lang: "cypher", persons: 10},
		{name: "trace to file", store: "vineyard", lang: "cypher", persons: 200, trace: "out.json"},
		{name: "bad store", store: "neo4j", lang: "cypher", persons: 200, want: `unknown store "neo4j"`},
		{name: "bad lang", store: "vineyard", lang: "sparql", persons: 200, want: `unknown language "sparql"`},
		{name: "negative par", store: "vineyard", lang: "cypher", par: -1, persons: 200, want: "-par -1"},
		{name: "negative batch", store: "vineyard", lang: "cypher", batch: -4, persons: 200, want: "-batch -4"},
		{name: "zero persons", store: "vineyard", lang: "cypher", persons: 0, want: "-persons 0"},
		{name: "negative timeout", store: "vineyard", lang: "cypher", persons: 200, timeout: -time.Second, want: "-timeout -1s"},
		// Observability flags combined with a bad store/language must be
		// rejected by this same pre-dataset gate: a typo'd backend plus
		// -trace or -explain cannot cost an SNB build before failing.
		{name: "trace with bad store", store: "neo4j", lang: "cypher", persons: 200, trace: "out.json", want: `unknown store "neo4j"`},
		{name: "trace with bad lang", store: "vineyard", lang: "sparql", persons: 200, trace: "out.json", want: `unknown language "sparql"`},
		{name: "trace to directory", store: "vineyard", lang: "cypher", persons: 200, trace: ".", want: `-trace "." is a directory`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := validateFlags(tc.store, tc.lang, tc.par, tc.batch, tc.persons, tc.timeout, tc.trace)
			if tc.want == "" {
				if got != "" {
					t.Fatalf("validateFlags = %q, want valid", got)
				}
				return
			}
			if !strings.Contains(got, tc.want) {
				t.Fatalf("validateFlags = %q, want it to mention %q", got, tc.want)
			}
		})
	}
}

// TestUsageLineMentionsEveryFlag keeps the usage message in sync with the
// flags main registers — a new knob must show up in the error users see.
func TestUsageLineMentionsEveryFlag(t *testing.T) {
	for _, f := range []string{"-persons", "-lang", "-store", "-par", "-batch", "-timeout", "-explain", "-trace"} {
		if !strings.Contains(usageLine, f) {
			t.Errorf("usage line does not mention %s: %q", f, usageLine)
		}
	}
}

// TestExplainCountsOnlyTheQuery pins that -explain's store profile is the
// query's own: the optimizer catalog build walks every adjacency list through
// AdjSlice, and those set-up calls are reported as one total, not folded into
// the per-site counts of a query whose expansion runs batched.
func TestExplainCountsOnlyTheQuery(t *testing.T) {
	cfg := config{persons: 200, lang: "cypher", store: "vineyard", explain: true}
	var out bytes.Buffer
	if err := run(cfg, `MATCH (p:Person)-[:KNOWS]->(f:Person) WHERE f.creationDate > 5 RETURN id(f)`, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "catalog build: ") {
		t.Errorf("explain output has no catalog-build total:\n%s", got)
	}
	_, profile, ok := strings.Cut(got, "store calls (vineyard):\n")
	if !ok {
		t.Fatalf("explain output has no store profile:\n%s", got)
	}
	if strings.Contains(profile, "AdjSlice") {
		t.Errorf("query profile reports AdjSlice calls made by the catalog build:\n%s", profile)
	}
	if !strings.Contains(profile, "ExpandBatch") {
		t.Errorf("query profile lost the query's own ExpandBatch calls:\n%s", profile)
	}
}
