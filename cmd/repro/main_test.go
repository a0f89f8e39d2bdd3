package main

import "testing"

// TestScenarioConflict pins that -scenario refuses every flag it
// would otherwise ignore: item selection, -out and -shard.
func TestScenarioConflict(t *testing.T) {
	if err := scenarioConflict(nil, "", ""); err != nil {
		t.Fatalf("plain -scenario rejected: %v", err)
	}
	for _, c := range []struct {
		items      []string
		out, shard string
	}{
		{items: []string{"fig6"}},
		{out: "results"},
		{shard: "0/2"},
	} {
		if err := scenarioConflict(c.items, c.out, c.shard); err == nil {
			t.Errorf("-scenario with items=%v out=%q shard=%q accepted", c.items, c.out, c.shard)
		}
	}
}
