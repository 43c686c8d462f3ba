package data

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// LoadMovieLens100K parses the MovieLens `u.data` tab-separated format
// (user, item, rating, timestamp; ids are 1-based). Ratings are binarised to
// implicit feedback as in the paper ("we transform all positive ratings to
// r=1"): every rating ≥ minRating becomes an interaction.
func LoadMovieLens100K(path string, minRating float64) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open movielens: %w", err)
	}
	defer f.Close()
	return ParseInteractions("ml-100k", f, "\t", minRating, true)
}

// LoadCSV parses a generic "user,item[,rating]" file with 0-based ids.
// Missing ratings default to 1 (implicit feedback).
func LoadCSV(path, name string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("data: open csv: %w", err)
	}
	defer f.Close()
	return ParseInteractions(name, f, ",", 0.5, false)
}

// ParseInteractions reads "user<sep>item[<sep>rating[...]]" lines, keeping
// records with rating ≥ minRating (absent ratings count as 1). When oneBased
// is set, ids are shifted down by one. User/item universes are sized by the
// maximum observed id, and blank or #-comment lines are skipped.
func ParseInteractions(name string, r io.Reader, sep string, minRating float64, oneBased bool) (*Dataset, error) {
	var pairs [][2]int
	maxU, maxV := -1, -1
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, sep)
		if len(fields) < 2 {
			return nil, fmt.Errorf("data: %s line %d: want at least user%sitem", name, line, sep)
		}
		u, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil {
			return nil, fmt.Errorf("data: %s line %d: bad user id: %w", name, line, err)
		}
		v, err := strconv.Atoi(strings.TrimSpace(fields[1]))
		if err != nil {
			return nil, fmt.Errorf("data: %s line %d: bad item id: %w", name, line, err)
		}
		rating := 1.0
		if len(fields) >= 3 {
			rating, err = strconv.ParseFloat(strings.TrimSpace(fields[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("data: %s line %d: bad rating: %w", name, line, err)
			}
		}
		if rating < minRating {
			continue
		}
		if oneBased {
			u--
			v--
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("data: %s line %d: negative id after adjustment", name, line)
		}
		if u > maxU {
			maxU = u
		}
		if v > maxV {
			maxV = v
		}
		pairs = append(pairs, [2]int{u, v})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("data: scan %s: %w", name, err)
	}
	if len(pairs) == 0 {
		return nil, fmt.Errorf("data: %s contains no interactions", name)
	}
	return NewDataset(name, maxU+1, maxV+1, pairs)
}

// WriteCSV emits the dataset as "user,item" lines, the format LoadCSV reads
// back.
func WriteCSV(d *Dataset, w io.Writer) error {
	bw := bufio.NewWriter(w)
	for u, items := range d.UserItems {
		if err := writeUserCSV(bw, u, items); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeUserCSV writes user u's items as one "user,item" line each.
func writeUserCSV(bw *bufio.Writer, u int, items []int) error {
	for _, v := range items {
		if _, err := fmt.Fprintf(bw, "%d,%d\n", u, v); err != nil {
			return fmt.Errorf("data: write csv: %w", err)
		}
	}
	return nil
}
