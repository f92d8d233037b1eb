package lru

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestBasicGetPut(t *testing.T) {
	c := New[int, string](2)
	if _, ok := c.Get(1); ok {
		t.Fatal("empty cache returned a value")
	}
	c.Put(1, "a")
	c.Put(2, "b")
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
	// 1 is now most recent; inserting 3 evicts 2.
	c.Put(3, "c")
	if _, ok := c.Get(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if v, ok := c.Get(1); !ok || v != "a" {
		t.Fatalf("Get(1) after eviction = %q,%v", v, ok)
	}
	if v, ok := c.Get(3); !ok || v != "c" {
		t.Fatalf("Get(3) = %q,%v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1)
	c.Put("k", 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	if v, _ := c.Get("k"); v != 2 {
		t.Fatalf("Get = %d, want 2", v)
	}
}

func TestPurge(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Purge()
	if c.Len() != 0 {
		t.Fatalf("Len after Purge = %d", c.Len())
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("Get after Purge hit")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int, int](8)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Put(i%16, w)
				c.Get((i + w) % 16)
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Fatalf("Len %d exceeds capacity", c.Len())
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	if v, ok := c.Get(1); !ok || v != 1 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	c.Put(2, 2)
	if _, ok := c.Get(1); ok {
		t.Fatal("capacity-1 cache kept two entries")
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New[int, string](3)
	for i := 1; i <= 3; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	c.Get(1) // order: 1,3,2
	c.Put(4, "4")
	if _, ok := c.Get(2); ok {
		t.Fatal("2 was most stale and should have been evicted")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("key %d missing", k)
		}
	}
}

// TestSegmentedKeepsHotEntries replays the daemon's traffic shape on a
// 256-entry cache: 16 keys are primed and hit once, then every batch
// reads 4 random hot keys and puts 6 keys never seen before. The
// segmented cache never misses a hot key; a plain LRU of the same
// capacity does on the same stream, once a hot key goes unread for
// about 43 batches.
func TestSegmentedKeepsHotEntries(t *testing.T) {
	const capacity, hot, batches = 256, 16, 100_000
	misses := func(c *Cache[int, int]) int {
		for k := 0; k < hot; k++ {
			c.Put(k, k)
			c.Get(k)
		}
		rng := rand.New(rand.NewSource(1))
		next, missed := hot, 0
		for b := 0; b < batches; b++ {
			for i := 0; i < 4; i++ {
				k := rng.Intn(hot)
				if v, ok := c.Get(k); !ok || v != k {
					missed++
					c.Put(k, k)
				}
			}
			for i := 0; i < 6; i++ {
				c.Put(next, next)
				next++
			}
		}
		return missed
	}
	if m := misses(NewSegmented[int, int](capacity, capacity*3/4)); m != 0 {
		t.Errorf("segmented cache missed hot keys %d times, want 0", m)
	}
	m := misses(New[int, int](capacity))
	if m == 0 {
		t.Error("plain LRU never missed a hot key; the stream does not test eviction")
	}
	t.Logf("plain LRU: %d hot misses in %d batches", m, batches)
}

func TestSegmentedEvictionOrder(t *testing.T) {
	c := NewSegmented[int, string](4, 2)
	for i := 1; i <= 4; i++ {
		c.Put(i, fmt.Sprint(i))
	}
	c.Get(1)
	c.Get(2)      // protected: 2,1; probationary: 4,3
	c.Put(5, "5") // evicts 3, the probationary LRU, not 1
	if _, ok := c.Get(3); ok {
		t.Fatal("3 was the stalest probationary entry and should have been evicted")
	}
	c.Get(4)      // protected overflows: 4,2 stay, 1 goes back to probationary: 1,5
	c.Put(6, "6") // evicts 5
	for k, want := range map[int]bool{1: true, 2: true, 4: true, 5: false, 6: true} {
		if _, ok := c.Get(k); ok != want {
			t.Errorf("Get(%d) found %t, want %t", k, ok, want)
		}
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	c.Purge()
	if c.Len() != 0 {
		t.Errorf("Len after Purge = %d", c.Len())
	}
}

func TestSegmentedProtectedRoomClamps(t *testing.T) {
	c := NewSegmented[int, int](2, 5) // protected room clamps to 1
	c.Put(1, 1)
	c.Get(1)
	c.Put(2, 2)
	c.Get(2) // protected: 2; 1 demoted to probationary
	c.Put(3, 3)
	if _, ok := c.Get(1); ok {
		t.Error("1 should have been evicted")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
}
