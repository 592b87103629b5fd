package experiments

import (
	"bufio"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// TestResultsFullCoversRegistry keeps the committed sweep artifact in
// step with the registry: results_full.txt is the output of
//
//	go run ./cmd/accelsim -exp all -n 600 -seed 2
//
// so its "=== id ===" section headers must be exactly IDs(), in order.
// An experiment added without regenerating the file fails here.
func TestResultsFullCoversRegistry(t *testing.T) {
	f, err := os.Open("../../results_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	header := regexp.MustCompile(`^=== (\S+) ===$`)
	var got []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if m := header.FindStringSubmatch(sc.Text()); m != nil {
			got = append(got, m[1])
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if want := IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("results_full.txt sections %v, want the registry %v; regenerate it with the command above", got, want)
	}
}
