package ingest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// The fixtures were written by the commit before ClientLoss existed,
// when Manifest and RunInfo each spelled the five client_* fields out:
// testdata/MANIFEST.pr13.json by a psxd run sealed with a BYE carrying
// every counter, testdata/runs.pr13.json by marshalling a /runs body
// with every RunInfo field set. Embedding one struct in place of the
// five fields must change neither what decodes nor a byte of what is
// written back.
func TestClientLossFixtures(t *testing.T) {
	want := ClientLoss{ClientProduced: 9, ClientDropped: 2, ClientDroppedSamples: 512, ClientSpilled: 4, ClientReplayed: 3}
	if got := (Bye{Seq: 3, Produced: 9, Dropped: 2, DroppedSamples: 512, Spilled: 4, Replayed: 3}).Loss(); got != want {
		t.Errorf("Bye.Loss() = %+v, want %+v", got, want)
	}

	dir := t.TempDir()
	old, err := os.ReadFile(filepath.Join("testdata", "MANIFEST.pr13.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if m.ClientLoss != want || m.ClientProduced != 9 || m.ClientDropped != 2 ||
		m.ClientDroppedSamples != 512 || m.ClientSpilled != 4 || m.ClientReplayed != 3 {
		t.Errorf("manifest decoded client loss %+v, want %+v", m.ClientLoss, want)
	}
	if m.ID != "fixture" || !m.Complete || m.Chunks != 1 || m.Samples != 5 {
		t.Errorf("manifest decoded %+v", m)
	}
	if err := writeManifest(osFS{}, dir, m); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(got, old) {
		t.Errorf("manifest re-encoded differently:\n%s\nwant:\n%s", got, old)
	}

	old, err = os.ReadFile(filepath.Join("testdata", "runs.pr13.json"))
	if err != nil {
		t.Fatal(err)
	}
	var snap RunsSnapshot
	if err := json.Unmarshal(old, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Runs) != 1 || snap.Runs[0].ClientLoss != want || snap.Runs[0].Fsyncs != 10 {
		t.Fatalf("/runs decoded %+v", snap.Runs)
	}
	got, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(got, '\n'), old) {
		t.Errorf("/runs re-encoded differently:\n%s\nwant:\n%s", got, old)
	}
}
