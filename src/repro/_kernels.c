/* Compiled kernel tier: C twins of the prefetcher train loops and of the
 * batched driver loop.
 *
 * This module re-hosts the state machines of the object prefetchers
 * ``repro.core.gaze.GazePrefetcher``,
 * ``repro.prefetchers.berti.BertiPrefetcher``,
 * ``repro.prefetchers.pmp.PMPPrefetcher`` and
 * ``repro.prefetchers.temporal.TriangelPrefetcher`` in C.  It is an
 * *optional* accelerator: the object classes remain the bit-exact
 * oracle, and ``repro.prefetchers.compiled`` falls back to them when this
 * extension has not been built (``python setup.py build_ext --inplace``).
 *
 * Bit-exactness contract
 * ----------------------
 * Every LRU touch point, eviction order, tie-break and threshold
 * comparison of the object implementations is replicated operation for
 * operation.  All float thresholds are precomputed on the Python
 * side (with the exact float comparisons the object implementations
 * perform) and passed in as integer tables, so this file is pure integer
 * code.  The all-tier equality suite (``tests/test_flat_state.py``) pins
 * the equivalence on every registered prefetcher.
 *
 * Geometry limits: the Gaze kernel requires ``blocks_per_region <= 64``
 * (region footprints are single uint64 masks); the wrapper falls back to
 * the object implementation otherwise.  Table lookups are linear
 * scans over the capacity, sized for the paper's 32..64-entry tables.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Ceiling of the PHT's LRU stamp clock.  Reaching it renormalises the
 * stamps in LRU order, which no lookup can observe (see pht_tick). */
#define STAMP_LIMIT (1LL << 60)

static inline uint64_t
mask_n(int n)
{
    return n >= 64 ? ~(uint64_t)0 : (((uint64_t)1 << n) - 1);
}

/* The train kernels are split into pure-C ``*_impl`` bodies writing packed
 * prefetches (``block << 1 | to_l1``) into a per-kernel ``out_buf`` and
 * returning a count (``-1`` means none), so the compiled driver loop can
 * call them without any per-access Python objects.  This helper builds
 * the Python-facing list of packed ints for the wrappers. */
static PyObject *
packed_result(const long long *buf, int n)
{
    if (n < 0)
        n = 0;
    PyObject *out = PyList_New(n);
    if (!out)
        return NULL;
    for (int i = 0; i < n; i++) {
        PyObject *v = PyLong_FromLongLong(buf[i]);
        if (!v) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, v);
    }
    return out;
}

/* ------------------------------------------------------------------ */
/* Fully-associative LRU table: key -> slot, linked-list recency.      */
/* Mirrors prefetchers.tables.LRUTable: OrderedDict order == list     */
/* order, victim is the list head.  Payload columns live in the caller. */
/* ------------------------------------------------------------------ */
typedef struct {
    int cap;
    int size;
    long long *keys;
    unsigned char *used;
    int *prev;
    int *next;
    int head; /* LRU */
    int tail; /* MRU */
    int *free_slots;
    int free_count;
} FTable;

static int
ft_init(FTable *t, int cap)
{
    t->cap = cap;
    t->size = 0;
    t->keys = PyMem_Malloc(sizeof(long long) * cap);
    t->used = PyMem_Malloc(cap);
    t->prev = PyMem_Malloc(sizeof(int) * cap);
    t->next = PyMem_Malloc(sizeof(int) * cap);
    t->free_slots = PyMem_Malloc(sizeof(int) * cap);
    if (!t->keys || !t->used || !t->prev || !t->next || !t->free_slots)
        return -1;
    memset(t->used, 0, cap);
    t->head = t->tail = -1;
    /* Free slots are popped highest-first. */
    for (int i = 0; i < cap; i++)
        t->free_slots[i] = cap - 1 - i;
    t->free_count = cap;
    return 0;
}

static void
ft_dealloc(FTable *t)
{
    PyMem_Free(t->keys);
    PyMem_Free(t->used);
    PyMem_Free(t->prev);
    PyMem_Free(t->next);
    PyMem_Free(t->free_slots);
}

static void
ft_clear(FTable *t)
{
    memset(t->used, 0, t->cap);
    t->head = t->tail = -1;
    t->size = 0;
    for (int i = 0; i < t->cap; i++)
        t->free_slots[i] = t->cap - 1 - i;
    t->free_count = t->cap;
}

static inline int
ft_find(FTable *t, long long key)
{
    const long long *keys = t->keys;
    const unsigned char *used = t->used;
    for (int i = 0; i < t->cap; i++)
        if (used[i] && keys[i] == key)
            return i;
    return -1;
}

static inline void
ft_unlink(FTable *t, int s)
{
    int p = t->prev[s], n = t->next[s];
    if (p >= 0) t->next[p] = n; else t->head = n;
    if (n >= 0) t->prev[n] = p; else t->tail = p;
}

static inline void
ft_append(FTable *t, int s)
{
    t->prev[s] = t->tail;
    t->next[s] = -1;
    if (t->tail >= 0) t->next[t->tail] = s; else t->head = s;
    t->tail = s;
}

static inline void
ft_touch(FTable *t, int s)
{
    if (t->tail == s)
        return;
    ft_unlink(t, s);
    ft_append(t, s);
}

/* Claim a slot for a key known to be absent.  *evicted is set when the
 * LRU entry was displaced (its payload is still intact at the returned
 * slot so the caller can learn from / clear it). */
static inline int
ft_insert(FTable *t, long long key, int *evicted)
{
    int s;
    *evicted = 0;
    if (t->free_count > 0) {
        s = t->free_slots[--t->free_count];
    } else {
        s = t->head;
        ft_unlink(t, s);
        *evicted = 1;
        t->size--;
    }
    t->keys[s] = key;
    t->used[s] = 1;
    ft_append(t, s);
    t->size++;
    return s;
}

/* Drop a specific occupied slot (FT activation path; AT deactivation). */
static inline void
ft_drop_slot(FTable *t, int s)
{
    ft_unlink(t, s);
    t->used[s] = 0;
    t->free_slots[t->free_count++] = s;
    t->size--;
}

/* ================================================================== */
/* Debug invariant tier (compiled only under REPRO_DEBUG_KERNELS).     */
/*                                                                     */
/* ``REPRO_DEBUG_KERNELS=1 python setup.py build_ext --inplace``       */
/* builds this extension with internal invariant checks; a violated    */
/* invariant raises AssertionError at the Python boundary instead of   */
/* silently corrupting state.  The checks never mutate anything, so a  */
/* debug build must stay bit-identical to a release build.             */
/* ================================================================== */
#ifdef REPRO_DEBUG_KERNELS
static int
dk_fail(const char *where, const char *what)
{
    PyErr_Format(PyExc_AssertionError,
                 "repro._kernels debug invariant violated: %s: %s",
                 where, what);
    return -1;
}

#define DK_CHECK(cond, where, what)                                    \
    do {                                                               \
        if (!(cond))                                                   \
            return dk_fail((where), (what));                           \
    } while (0)

/* LRU chain integrity: head->tail visits exactly the occupied slots
 * with consistent back links, and the free list holds the rest. */
static int
ft_check(const FTable *t, const char *where)
{
    DK_CHECK(t->size >= 0 && t->size <= t->cap, where, "size out of range");
    DK_CHECK(t->free_count == t->cap - t->size, where,
             "free_count + size != cap");
    int count = 0, prev = -1;
    for (int s = t->head; s != -1; s = t->next[s]) {
        DK_CHECK(s >= 0 && s < t->cap, where, "chain slot out of range");
        DK_CHECK(t->used[s], where, "chain visits a free slot");
        DK_CHECK(t->prev[s] == prev, where, "prev link disagrees");
        prev = s;
        count++;
        DK_CHECK(count <= t->size, where, "chain longer than size (cycle?)");
    }
    DK_CHECK(prev == t->tail, where, "tail does not end the chain");
    DK_CHECK(count == t->size, where, "chain shorter than size");
    for (int i = 0; i < t->free_count; i++) {
        int s = t->free_slots[i];
        DK_CHECK(s >= 0 && s < t->cap && !t->used[s], where,
                 "free list holds an occupied slot");
    }
    return 0;
}
#endif /* REPRO_DEBUG_KERNELS */

/* ================================================================== */
/* BertiKernel: C twin of BertiPrefetcher.train                        */
/* ================================================================== */
typedef struct {
    PyObject_HEAD
    int pc_entries;
    int hist_cap;
    int max_deltas;
    int max_prefetches;
    long long window_blocks;
    long long cand_off;
    int cand_shift;
    long long l1_thr[64];
    long long l2_thr[64];
    FTable table;
    long long *hist_block;
    long long *hist_cycle;
    int *hist_start;
    int *hist_len;
    long long *d_val;
    long long *d_occ;
    long long *d_tim;
    int *d_cnt;
    long long *rounds;
    long long out_buf[64]; /* packed prefetches from the last train_impl */
} BertiKernel;

static void
Berti_dealloc(BertiKernel *self)
{
    ft_dealloc(&self->table);
    PyMem_Free(self->hist_block);
    PyMem_Free(self->hist_cycle);
    PyMem_Free(self->hist_start);
    PyMem_Free(self->hist_len);
    PyMem_Free(self->d_val);
    PyMem_Free(self->d_occ);
    PyMem_Free(self->d_tim);
    PyMem_Free(self->d_cnt);
    PyMem_Free(self->rounds);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
load_thr_table(PyObject *seq, long long *out, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "threshold table must be a sequence");
    if (!fast)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != 64) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s must have 64 entries", name);
        return -1;
    }
    for (int i = 0; i < 64; i++) {
        out[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    return 0;
}

static int
Berti_init(BertiKernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "pc_entries", "history_per_pc", "max_deltas_per_pc", "window_blocks",
        "max_prefetches", "l2_occ_thr", "l1_occ_thr", "cand_off", "cand_shift",
        NULL,
    };
    PyObject *l2_thr, *l1_thr;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iiiLiOOLi", kwlist,
            &self->pc_entries, &self->hist_cap, &self->max_deltas,
            &self->window_blocks, &self->max_prefetches,
            &l2_thr, &l1_thr, &self->cand_off, &self->cand_shift))
        return -1;
    if (self->pc_entries <= 0 || self->hist_cap <= 0 || self->max_deltas <= 0) {
        PyErr_SetString(PyExc_ValueError, "table sizes must be positive");
        return -1;
    }
    if (self->hist_cap > 64 || self->max_deltas > 64) {
        /* Stack scratch buffers in train() are sized for the paper's
         * 16-entry tables; the wrapper falls back to Python beyond 64. */
        PyErr_SetString(PyExc_ValueError,
                        "BertiKernel supports at most 64 history/delta entries");
        return -1;
    }
    if (load_thr_table(l2_thr, self->l2_thr, "l2_occ_thr") < 0)
        return -1;
    if (load_thr_table(l1_thr, self->l1_thr, "l1_occ_thr") < 0)
        return -1;
    int n = self->pc_entries;
    if (ft_init(&self->table, n) < 0)
        goto nomem;
    self->hist_block = PyMem_Malloc(sizeof(long long) * n * self->hist_cap);
    self->hist_cycle = PyMem_Malloc(sizeof(long long) * n * self->hist_cap);
    self->hist_start = PyMem_Malloc(sizeof(int) * n);
    self->hist_len = PyMem_Malloc(sizeof(int) * n);
    self->d_val = PyMem_Malloc(sizeof(long long) * n * self->max_deltas);
    self->d_occ = PyMem_Malloc(sizeof(long long) * n * self->max_deltas);
    self->d_tim = PyMem_Malloc(sizeof(long long) * n * self->max_deltas);
    self->d_cnt = PyMem_Malloc(sizeof(int) * n);
    self->rounds = PyMem_Malloc(sizeof(long long) * n);
    if (!self->hist_block || !self->hist_cycle || !self->hist_start ||
        !self->hist_len || !self->d_val || !self->d_occ || !self->d_tim ||
        !self->d_cnt || !self->rounds)
        goto nomem;
    memset(self->hist_start, 0, sizeof(int) * n);
    memset(self->hist_len, 0, sizeof(int) * n);
    memset(self->d_cnt, 0, sizeof(int) * n);
    memset(self->rounds, 0, sizeof(long long) * n);
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static PyObject *
Berti_reset(BertiKernel *self, PyObject *Py_UNUSED(ignored))
{
    ft_clear(&self->table);
    memset(self->hist_start, 0, sizeof(int) * self->pc_entries);
    memset(self->hist_len, 0, sizeof(int) * self->pc_entries);
    memset(self->d_cnt, 0, sizeof(int) * self->pc_entries);
    memset(self->rounds, 0, sizeof(long long) * self->pc_entries);
    Py_RETURN_NONE;
}

static int
berti_train_impl(BertiKernel *self, long long pc, long long address,
                 long long cycle, long long latency)
{
    long long block = address >> 6;
    long long key = pc & 0xFFFF;
    FTable *t = &self->table;
    int slot = ft_find(t, key);
    if (slot < 0) {
        int evicted;
        slot = ft_insert(t, key, &evicted);
        if (evicted) {
            self->hist_len[slot] = 0;
            self->hist_start[slot] = 0;
            self->d_cnt[slot] = 0;
            self->rounds[slot] = 0;
        }
    } else {
        ft_touch(t, slot);
    }

    const int hcap = self->hist_cap;
    const int dmax = self->max_deltas;
    long long *hblock = self->hist_block + (size_t)slot * hcap;
    long long *hcycle = self->hist_cycle + (size_t)slot * hcap;
    long long *dval = self->d_val + (size_t)slot * dmax;
    long long *docc = self->d_occ + (size_t)slot * dmax;
    long long *dtim = self->d_tim + (size_t)slot * dmax;
    int hstart = self->hist_start[slot];
    int hlen = self->hist_len[slot];
    int dcnt = self->d_cnt[slot];
    long long rounds = self->rounds[slot];

    /* ---- learn (exact port of BertiPrefetcher._learn_deltas) ---- */
    if (hlen > 0) {
        const long long window = self->window_blocks;
        const long long thr = cycle - latency;
        long long seen[64]; /* <= hist_cap distinct deltas per call */
        int seen_n = 0;
        for (int h = 0; h < hlen; h++) {
            int pos = hstart + h;
            if (pos >= hcap)
                pos -= hcap;
            long long delta = block - hblock[pos];
            if (delta == 0 || delta > window || delta < -window)
                continue;
            int dup = 0;
            for (int s = 0; s < seen_n; s++)
                if (seen[s] == delta) { dup = 1; break; }
            if (dup)
                continue;
            seen[seen_n++] = delta;
            long long past_cycle = hcycle[pos];
            int di = -1;
            for (int d = 0; d < dcnt; d++)
                if (dval[d] == delta) { di = d; break; }
            if (di < 0) {
                if (dcnt >= dmax) {
                    /* Replace the weakest delta: lowest min(occ, rounds),
                     * first in insertion order on ties (break at k <= 1 --
                     * nothing later can be smaller). */
                    int victim = 0;
                    if (rounds) {
                        long long weakest_key = 1LL << 60;
                        for (int d = 0; d < dcnt; d++) {
                            long long k = docc[d] < rounds ? docc[d] : rounds;
                            if (k < weakest_key) {
                                weakest_key = k;
                                victim = d;
                                if (k <= 1)
                                    break;
                            }
                        }
                    }
                    int tail = dcnt - victim - 1;
                    if (tail > 0) {
                        memmove(dval + victim, dval + victim + 1,
                                sizeof(long long) * tail);
                        memmove(docc + victim, docc + victim + 1,
                                sizeof(long long) * tail);
                        memmove(dtim + victim, dtim + victim + 1,
                                sizeof(long long) * tail);
                    }
                    dcnt--;
                }
                dval[dcnt] = delta;
                docc[dcnt] = 1;
                dtim[dcnt] = (past_cycle <= thr);
                dcnt++;
            } else {
                docc[di] += 1;
                dtim[di] += (past_cycle <= thr);
            }
        }
    }
    rounds += 1;
    if (!(rounds & 63)) {
        rounds >>= 1;
        for (int d = 0; d < dcnt; d++) {
            long long occ = docc[d] >> 1;
            docc[d] = occ ? occ : 1;
            dtim[d] >>= 1;
        }
    }

    /* History append (drop oldest beyond capacity). */
    if (hlen < hcap) {
        int pos = hstart + hlen;
        if (pos >= hcap)
            pos -= hcap;
        hblock[pos] = block;
        hcycle[pos] = cycle;
        hlen++;
    } else {
        hblock[hstart] = block;
        hcycle[hstart] = cycle;
        hstart++;
        if (hstart >= hcap)
            hstart = 0;
    }
    self->hist_start[slot] = hstart;
    self->hist_len[slot] = hlen;
    self->d_cnt[slot] = dcnt;
    self->rounds[slot] = rounds;

    /* ---- issue (exact port of BertiPrefetcher._issue) ---- */
    if (!rounds)
        return -1;
    const long long thr_l2 = self->l2_thr[rounds];
    const long long cand_off = self->cand_off;
    const int cand_shift = self->cand_shift;
    long long cand[64];
    int cand_n = 0;
    for (int d = 0; d < dcnt; d++) {
        long long occ = docc[d];
        if (occ < 2 || occ < thr_l2)
            continue;
        long long k = occ < rounds ? occ : rounds;
        long long ck = (k << cand_shift) | (dval[d] + cand_off);
        /* Descending insertion sort (distinct keys: delta is unique). */
        int j = cand_n;
        while (j > 0 && cand[j - 1] < ck) {
            cand[j] = cand[j - 1];
            j--;
        }
        cand[j] = ck;
        cand_n++;
    }
    if (!cand_n)
        return -1;
    const long long thr_l1 = self->l1_thr[rounds];
    const long long cand_mask = ((long long)1 << cand_shift) - 1;
    const long long window = self->window_blocks;
    int limit = cand_n < self->max_prefetches ? cand_n : self->max_prefetches;
    int count = 0;
    for (int c = 0; c < limit; c++) {
        long long delta = (cand[c] & cand_mask) - cand_off;
        long long target = block + delta;
        if (target < 0 || llabs(delta) > window)
            continue;
        long long occ = 0, tim = 0;
        for (int d = 0; d < dcnt; d++)
            if (dval[d] == delta) { occ = docc[d]; tim = dtim[d]; break; }
        long long hint_bit = (occ >= thr_l1 && 2 * tim >= occ) ? 1 : 0;
        self->out_buf[count++] = (target << 1) | hint_bit;
    }
    return count;
}

static PyObject *
Berti_train(BertiKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "train(pc, address, cycle, latency)");
        return NULL;
    }
    long long pc = PyLong_AsLongLong(args[0]);
    long long address = PyLong_AsLongLong(args[1]);
    long long cycle = PyLong_AsLongLong(args[2]);
    long long latency = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    return packed_result(self->out_buf,
                         berti_train_impl(self, pc, address, cycle, latency));
}

static PyMethodDef Berti_methods[] = {
    {"train", (PyCFunction)(void (*)(void))Berti_train, METH_FASTCALL,
     "One train step; returns a list of packed prefetches."},
    {"reset", (PyCFunction)Berti_reset, METH_NOARGS, "Clear all state."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject BertiKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels.BertiKernel",
    .tp_basicsize = sizeof(BertiKernel),
    .tp_dealloc = (destructor)Berti_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C twin of BertiPrefetcher's train state machine.",
    .tp_methods = Berti_methods,
    .tp_init = (initproc)Berti_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================== */
/* GazeKernel: C twin of GazePrefetcher                                */
/* ================================================================== */
typedef struct {
    PyObject_HEAD
    /* geometry / config */
    int blocks;
    long long region_size;
    int region_shift; /* -1 when region_size is not a power of two */
    uint64_t offset_mask;
    uint64_t full_mask;
    uint64_t head_mask;
    uint64_t tail_mask;
    int enable_streaming;
    int enable_pht;
    int stride_backup;
    int pb_limit;
    int promo_start;
    int promo_count;
    /* filter table */
    FTable ft;
    long long *ft_pc;
    long long *ft_off;
    /* accumulation table */
    FTable at;
    long long *at_pc;
    long long *at_trig;
    long long *at_second;
    uint64_t *at_foot;
    long long *at_last;
    long long *at_penult;
    unsigned char *at_stride;
    /* pattern history table (set-associative, stamp LRU) */
    int pht_sets;
    int pht_ways;
    unsigned char *pht_valid;
    long long *pht_tag;
    long long *pht_stamp;
    uint64_t *pht_foot;
    long long pht_clock;
    /* prefetch buffer */
    FTable pb;
    uint64_t *pb_l1;
    uint64_t *pb_l2;
    uint64_t *pb_issued;
    uint64_t *pb_issued_l1;
    long long *pb_pending;
    /* streaming module */
    FTable dpct;
    int dc_value;
    int dc_max;
    /* introspection counters */
    long long pht_lookups;
    long long pht_hits;
    long long pht_updates;
    long long pht_predictions;
    long long streaming_predictions;
    long long backup_activations;
    long long promotions;
    long long out_buf[64]; /* packed prefetches from the last train_impl */
} GazeKernel;

static void
Gaze_dealloc(GazeKernel *self)
{
    ft_dealloc(&self->ft);
    ft_dealloc(&self->at);
    ft_dealloc(&self->pb);
    ft_dealloc(&self->dpct);
    PyMem_Free(self->ft_pc);
    PyMem_Free(self->ft_off);
    PyMem_Free(self->at_pc);
    PyMem_Free(self->at_trig);
    PyMem_Free(self->at_second);
    PyMem_Free(self->at_foot);
    PyMem_Free(self->at_last);
    PyMem_Free(self->at_penult);
    PyMem_Free(self->at_stride);
    PyMem_Free(self->pht_valid);
    PyMem_Free(self->pht_tag);
    PyMem_Free(self->pht_stamp);
    PyMem_Free(self->pht_foot);
    PyMem_Free(self->pb_l1);
    PyMem_Free(self->pb_l2);
    PyMem_Free(self->pb_issued);
    PyMem_Free(self->pb_issued_l1);
    PyMem_Free(self->pb_pending);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Gaze_init(GazeKernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "blocks", "region_size", "filter_entries", "accumulation_entries",
        "pht_sets", "pht_ways", "prefetch_buffer_entries", "pb_limit",
        "promo_start", "promo_count", "head_blocks", "dpct_entries",
        "dc_bits", "enable_streaming", "enable_pht", "stride_backup",
        NULL,
    };
    int ft_entries, at_entries, pb_entries, head_blocks, dpct_entries, dc_bits;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iLiiiiiiiiiiiiii", kwlist,
            &self->blocks, &self->region_size, &ft_entries, &at_entries,
            &self->pht_sets, &self->pht_ways, &pb_entries, &self->pb_limit,
            &self->promo_start, &self->promo_count, &head_blocks,
            &dpct_entries, &dc_bits, &self->enable_streaming,
            &self->enable_pht, &self->stride_backup))
        return -1;
    if (self->blocks <= 0 || self->blocks > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "GazeKernel requires 1 <= blocks_per_region <= 64");
        return -1;
    }
    if ((self->region_size & (self->region_size - 1)) == 0) {
        int shift = 0;
        long long r = self->region_size;
        while (r > 1) { r >>= 1; shift++; }
        self->region_shift = shift;
        self->offset_mask = (uint64_t)(self->blocks - 1);
    } else {
        self->region_shift = -1;
        self->offset_mask = 0;
    }
    self->full_mask = mask_n(self->blocks);
    int head = head_blocks < self->blocks ? head_blocks : self->blocks;
    self->head_mask = mask_n(head);
    self->tail_mask = self->full_mask ^ self->head_mask;
    self->dc_max = (1 << dc_bits) - 1;
    self->dc_value = 0;
    self->pht_clock = 0;
    self->pht_lookups = self->pht_hits = self->pht_updates = 0;
    self->pht_predictions = self->streaming_predictions = 0;
    self->backup_activations = self->promotions = 0;

    if (ft_init(&self->ft, ft_entries) < 0 ||
        ft_init(&self->at, at_entries) < 0 ||
        ft_init(&self->pb, pb_entries) < 0 ||
        ft_init(&self->dpct, dpct_entries) < 0)
        goto nomem;
    self->ft_pc = PyMem_Malloc(sizeof(long long) * ft_entries);
    self->ft_off = PyMem_Malloc(sizeof(long long) * ft_entries);
    self->at_pc = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_trig = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_second = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_foot = PyMem_Malloc(sizeof(uint64_t) * at_entries);
    self->at_last = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_penult = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_stride = PyMem_Malloc(at_entries);
    int pht_size = self->pht_sets * self->pht_ways;
    self->pht_valid = PyMem_Malloc(pht_size);
    self->pht_tag = PyMem_Malloc(sizeof(long long) * pht_size);
    self->pht_stamp = PyMem_Malloc(sizeof(long long) * pht_size);
    self->pht_foot = PyMem_Malloc(sizeof(uint64_t) * pht_size);
    self->pb_l1 = PyMem_Malloc(sizeof(uint64_t) * pb_entries);
    self->pb_l2 = PyMem_Malloc(sizeof(uint64_t) * pb_entries);
    self->pb_issued = PyMem_Malloc(sizeof(uint64_t) * pb_entries);
    self->pb_issued_l1 = PyMem_Malloc(sizeof(uint64_t) * pb_entries);
    self->pb_pending = PyMem_Malloc(sizeof(long long) * pb_entries);
    if (!self->ft_pc || !self->ft_off || !self->at_pc || !self->at_trig ||
        !self->at_second || !self->at_foot || !self->at_last ||
        !self->at_penult || !self->at_stride || !self->pht_valid ||
        !self->pht_tag || !self->pht_stamp || !self->pht_foot ||
        !self->pb_l1 || !self->pb_l2 || !self->pb_issued ||
        !self->pb_issued_l1 || !self->pb_pending)
        goto nomem;
    memset(self->pht_valid, 0, pht_size);
    memset(self->pb_l1, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_l2, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_issued, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_issued_l1, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_pending, 0, sizeof(long long) * pb_entries);
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* ---- streaming module (DPCT + DC) -------------------------------- */
static inline long long
hash_pc12(unsigned long long pc)
{
    unsigned long long mask = 0xFFF, result = 0;
    while (pc) {
        result ^= pc & mask;
        pc >>= 12;
    }
    return (long long)(result & mask);
}

/* LRUTable.get default-touches, so DensePCTable.contains refreshes the
 * entry's recency on hit -- replicated here. */
static inline int
dpct_contains(GazeKernel *self, long long pc)
{
    int slot = ft_find(&self->dpct, hash_pc12((unsigned long long)pc));
    if (slot < 0)
        return 0;
    ft_touch(&self->dpct, slot);
    return 1;
}

static inline void
dpct_record(GazeKernel *self, long long pc)
{
    long long h = hash_pc12((unsigned long long)pc);
    int slot = ft_find(&self->dpct, h);
    if (slot >= 0) {
        ft_touch(&self->dpct, slot);
        return;
    }
    int evicted;
    ft_insert(&self->dpct, h, &evicted);
}

static inline void
streaming_learn(GazeKernel *self, long long pc, int fully_dense)
{
    if (fully_dense) {
        dpct_record(self, pc);
        if (self->dc_value < self->dc_max)
            self->dc_value++;
    } else {
        if (self->dc_value > 2)
            self->dc_value /= 2;
        else if (self->dc_value > 0)
            self->dc_value--;
    }
}

/* StreamingConfidence: 2=HIGH, 1=MODERATE, 0=NONE. */
static inline int
streaming_confidence(GazeKernel *self, long long pc)
{
    if (dpct_contains(self, pc) || self->dc_value == self->dc_max)
        return 2;
    if (self->dc_value > 2)
        return 1;
    return 0;
}

/* ---- PHT (stamp-LRU set-associative) ----------------------------- */
static long long
pht_tick(GazeKernel *self)
{
    long long clock = self->pht_clock;
    if (clock >= STAMP_LIMIT) {
        /* Renormalise valid stamps to 0..n-1 in LRU order (unreachable
         * in practice; order-preserving, so no lookup can tell). */
        int size = self->pht_sets * self->pht_ways;
        long long rank = 0;
        for (;;) {
            int best = -1;
            long long best_stamp = STAMP_LIMIT + 1;
            for (int i = 0; i < size; i++)
                if (self->pht_valid[i] && self->pht_stamp[i] >= rank &&
                    self->pht_stamp[i] < best_stamp) {
                    best_stamp = self->pht_stamp[i];
                    best = i;
                }
            if (best < 0)
                break;
            self->pht_stamp[best] = rank++;
        }
        self->pht_clock = clock = rank;
    }
    self->pht_clock = clock + 1;
    return clock;
}

/* ---- prefetch buffer helpers ------------------------------------- */
static inline int
pb_slot(GazeKernel *self, long long region)
{
    int slot = ft_find(&self->pb, region);
    if (slot >= 0) {
        ft_touch(&self->pb, slot);
        return slot;
    }
    int evicted;
    slot = ft_insert(&self->pb, region, &evicted);
    if (evicted) {
        self->pb_l1[slot] = 0;
        self->pb_l2[slot] = 0;
        self->pb_issued[slot] = 0;
        self->pb_issued_l1[slot] = 0;
        self->pb_pending[slot] = 0;
    }
    return slot;
}

static void
pb_add(GazeKernel *self, long long region, uint64_t l1_mask, uint64_t l2_mask,
       uint64_t exclude)
{
    int slot = pb_slot(self, region);
    uint64_t m1 = self->pb_l1[slot];
    uint64_t m2 = self->pb_l2[slot];
    uint64_t issued = self->pb_issued[slot];
    long long pending = self->pb_pending[slot];
    if (l2_mask) {
        uint64_t new_l2 = l2_mask & ~exclude & ~(m1 | m2 | issued);
        if (new_l2) {
            m2 |= new_l2;
            pending += __builtin_popcountll(new_l2);
        }
    }
    if (l1_mask) {
        uint64_t el1 = l1_mask & ~exclude & ~issued;
        if (el1) {
            pending += __builtin_popcountll(el1 & ~(m1 | m2));
            m1 |= el1;
            m2 &= ~el1;
        }
    }
    self->pb_l1[slot] = m1;
    self->pb_l2[slot] = m2;
    self->pb_pending[slot] = pending;
}

/* pop_requests: ascending offsets, bounded by pb_limit; returns a new
 * list, or None when nothing was pending. */
static int
pb_pop_requests_impl(GazeKernel *self, int slot, long long region)
{
    uint64_t m1 = self->pb_l1[slot];
    uint64_t pending_mask = m1 | self->pb_l2[slot];
    long long base_block = (region * self->region_size) >> 6;
    uint64_t taken = 0, taken_l1 = 0;
    int count = 0;
    const int limit = self->pb_limit;
    while (pending_mask && count < limit) {
        uint64_t low = pending_mask & (~pending_mask + 1);
        pending_mask ^= low;
        taken |= low;
        int bit = __builtin_ctzll(low);
        long long packed;
        if (m1 & low) {
            taken_l1 |= low;
            packed = ((base_block + bit) << 1) | 1;
        } else {
            packed = (base_block + bit) << 1;
        }
        self->out_buf[count++] = packed;
    }
    if (!count)
        return -1;
    self->pb_l1[slot] = m1 & ~taken;
    self->pb_l2[slot] &= ~taken;
    self->pb_issued[slot] |= taken;
    self->pb_issued_l1[slot] = (self->pb_issued_l1[slot] & ~taken) | taken_l1;
    self->pb_pending[slot] -= count;
    return count;
}

/* ---- PHT predict / learn ----------------------------------------- */
static int
pht_predict(GazeKernel *self, long long region, long long trigger_offset,
            long long second_offset)
{
    self->pht_lookups++;
    int set_index = (int)(trigger_offset % self->pht_sets);
    int base = set_index * self->pht_ways;
    int slot = -1;
    for (int w = base; w < base + self->pht_ways; w++)
        if (self->pht_valid[w] && self->pht_tag[w] == second_offset) {
            slot = w;
            break;
        }
    if (slot < 0)
        return 0;
    self->pht_stamp[slot] = pht_tick(self);
    self->pht_hits++;
    self->pht_predictions++;
    uint64_t footprint = self->pht_foot[slot];
    uint64_t exclude =
        ((uint64_t)1 << trigger_offset) | ((uint64_t)1 << second_offset);
    pb_add(self, region, footprint & self->full_mask, 0, exclude);
    return 1;
}

static void
pht_learn(GazeKernel *self, long long trigger_offset, long long second_offset,
          uint64_t footprint)
{
    self->pht_updates++;
    int set_index = (int)(trigger_offset % self->pht_sets);
    int base = set_index * self->pht_ways;
    int slot = -1;
    for (int w = base; w < base + self->pht_ways; w++)
        if (self->pht_valid[w] && self->pht_tag[w] == second_offset) {
            slot = w;
            break;
        }
    if (slot < 0) {
        for (int w = base; w < base + self->pht_ways; w++)
            if (!self->pht_valid[w]) {
                slot = w;
                break;
            }
        if (slot < 0) {
            /* Min-stamp victim; strict < keeps the first minimum. */
            slot = base;
            long long best = self->pht_stamp[base];
            for (int w = base + 1; w < base + self->pht_ways; w++)
                if (self->pht_stamp[w] < best) {
                    best = self->pht_stamp[w];
                    slot = w;
                }
        }
        self->pht_tag[slot] = second_offset;
        self->pht_valid[slot] = 1;
    }
    self->pht_stamp[slot] = pht_tick(self);
    self->pht_foot[slot] = footprint;
}

/* ---- learning / deactivation ------------------------------------- */
static void
learn_slot(GazeKernel *self, int slot)
{
    long long trigger_offset = self->at_trig[slot];
    long long second_offset = self->at_second[slot];
    if (trigger_offset == 0 && second_offset == 1 && self->enable_streaming) {
        uint64_t footprint = self->at_foot[slot] & self->full_mask;
        streaming_learn(self, self->at_pc[slot],
                        footprint == self->full_mask);
        return;
    }
    if (self->enable_pht)
        pht_learn(self, trigger_offset, second_offset, self->at_foot[slot]);
}

/* ---- stage-2 promotion / stride backup --------------------------- */
static void
promote_tracked(GazeKernel *self, int slot, long long offset)
{
    long long last = self->at_last[slot];
    long long penult = self->at_penult[slot];
    if (last < 0 || penult < 0 || offset == last)
        return;
    long long stride = last - penult;
    if (stride != offset - last || stride == 0)
        return;
    const int blocks = self->blocks;
    uint64_t mask = 0;
    for (int i = 0; i < self->promo_count; i++) {
        long long target = offset + stride * (self->promo_start + i);
        if (target >= 0 && target < blocks)
            mask |= (uint64_t)1 << target;
    }
    if (!mask)
        return;
    /* The AT slot's key is its region (at_region column in Python). */
    int pslot = pb_slot(self, self->at.keys[slot]);
    uint64_t cand = mask & ~self->pb_issued_l1[pslot];
    if (!cand)
        return;
    uint64_t m1 = self->pb_l1[pslot];
    uint64_t m2 = self->pb_l2[pslot];
    self->pb_pending[pslot] += __builtin_popcountll(cand & ~(m1 | m2));
    self->pb_l1[pslot] = m1 | cand;
    self->pb_l2[pslot] = m2 & ~cand;
    self->pb_issued[pslot] &= ~cand;
    self->promotions++;
    if ((self->at_foot[slot] & self->full_mask) != self->full_mask)
        self->backup_activations++;
}

/* ---- region activation (second access) --------------------------- */
static int
gaze_activate_impl(GazeKernel *self, long long region, long long trigger_pc,
                   long long trigger_offset, long long second_offset,
                   long long second_pc)
{
    (void)second_pc;
    int stride_flag = 0;
    if (trigger_offset == 0 && second_offset == 1) {
        if (self->enable_streaming) {
            stride_flag = 1;
            int confidence = streaming_confidence(self, trigger_pc);
            uint64_t exclude = ((uint64_t)1 << trigger_offset) |
                               ((uint64_t)1 << second_offset);
            if (confidence == 2)
                pb_add(self, region, self->head_mask, self->tail_mask, exclude);
            else if (confidence == 1)
                pb_add(self, region, 0, self->head_mask, exclude);
            if (confidence != 0)
                self->streaming_predictions++;
        } else if (self->enable_pht) {
            stride_flag = !pht_predict(self, region, trigger_offset,
                                       second_offset);
        } else {
            stride_flag = 1;
        }
    } else if (self->enable_pht) {
        int matched = pht_predict(self, region, trigger_offset, second_offset);
        stride_flag = !matched && self->stride_backup;
    } else {
        stride_flag = self->stride_backup;
    }

    int evicted;
    int slot = ft_insert(&self->at, region, &evicted);
    if (evicted) {
        /* ft_insert already displaced the victim's key, but its payload
         * is intact at `slot` -- but learn_slot needs the payload BEFORE
         * the overwrite below, which is exactly now. */
        learn_slot(self, slot);
    }
    self->at_pc[slot] = trigger_pc;
    self->at_trig[slot] = trigger_offset;
    self->at_second[slot] = second_offset;
    self->at_foot[slot] = ((uint64_t)1 << trigger_offset) |
                          ((uint64_t)1 << second_offset);
    self->at_penult[slot] = trigger_offset;
    self->at_last[slot] = second_offset;
    self->at_stride[slot] = stride_flag ? 1 : 0;

    int pslot = ft_find(&self->pb, region);
    if (pslot < 0)
        return -1;
    ft_touch(&self->pb, pslot);
    if (!self->pb_pending[pslot])
        return -1;
    return pb_pop_requests_impl(self, pslot, region);
}

/* ---- train ------------------------------------------------------- */
static int
gaze_train_impl(GazeKernel *self, long long pc, long long address)
{
    long long region, offset;
    if (self->region_shift >= 0) {
        region = address >> self->region_shift;
        offset = (address >> 6) & (long long)self->offset_mask;
    } else {
        region = address / self->region_size;
        offset = (address % self->region_size) >> 6;
    }

    int slot = ft_find(&self->at, region);
    if (slot >= 0) {
        ft_touch(&self->at, slot);
        if (self->at_stride[slot] && self->stride_backup)
            promote_tracked(self, slot, offset);
        self->at_foot[slot] |= (uint64_t)1 << offset;
        long long last = self->at_last[slot];
        if (offset != last) {
            self->at_penult[slot] = last;
            self->at_last[slot] = offset;
        }
        int pslot = ft_find(&self->pb, region);
        if (pslot < 0)
            return -1;
        ft_touch(&self->pb, pslot);
        if (!self->pb_pending[pslot])
            return -1;
        return pb_pop_requests_impl(self, pslot, region);
    }

    int fslot = ft_find(&self->ft, region);
    if (fslot >= 0) {
        long long trigger_offset = self->ft_off[fslot];
        if (trigger_offset == offset) {
            ft_touch(&self->ft, fslot);
            return -1;
        }
        long long trigger_pc = self->ft_pc[fslot];
        ft_drop_slot(&self->ft, fslot);
        return gaze_activate_impl(self, region, trigger_pc, trigger_offset,
                                  offset, pc);
    }

    /* First touch of an unknown region: silent LRU allocation. */
    int evicted;
    fslot = ft_insert(&self->ft, region, &evicted);
    self->ft_pc[fslot] = pc;
    self->ft_off[fslot] = offset;
    return -1;
}

static PyObject *
Gaze_train(GazeKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "train(pc, address)");
        return NULL;
    }
    long long pc = PyLong_AsLongLong(args[0]);
    long long address = PyLong_AsLongLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return packed_result(self->out_buf, gaze_train_impl(self, pc, address));
}

static void
gaze_evict_impl(GazeKernel *self, long long block)
{
    long long region;
    if (self->region_shift >= 0)
        region = block >> (self->region_shift - 6);
    else
        region = (block << 6) / self->region_size;
    int slot = ft_find(&self->at, region);
    if (slot >= 0) {
        learn_slot(self, slot);
        ft_drop_slot(&self->at, slot);
    }
}

static PyObject *
Gaze_evict(GazeKernel *self, PyObject *arg)
{
    long long block = PyLong_AsLongLong(arg);
    if (block == -1 && PyErr_Occurred())
        return NULL;
    gaze_evict_impl(self, block);
    Py_RETURN_NONE;
}

static PyObject *
Gaze_drain(GazeKernel *self, PyObject *Py_UNUSED(ignored))
{
    /* Deactivate in LRU -> MRU order, matching GazePrefetcher.drain
     * (the accumulation table's OrderedDict order). */
    while (self->at.head >= 0) {
        int slot = self->at.head;
        learn_slot(self, slot);
        ft_drop_slot(&self->at, slot);
    }
    Py_RETURN_NONE;
}

static PyObject *
Gaze_counters(GazeKernel *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "(LLLLLLL)", self->pht_lookups, self->pht_hits, self->pht_updates,
        self->pht_predictions, self->streaming_predictions,
        self->backup_activations, self->promotions);
}

static PyObject *
Gaze_reset(GazeKernel *self, PyObject *Py_UNUSED(ignored))
{
    ft_clear(&self->ft);
    ft_clear(&self->at);
    ft_clear(&self->pb);
    ft_clear(&self->dpct);
    int pb_entries = self->pb.cap;
    memset(self->pb_l1, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_l2, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_issued, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_issued_l1, 0, sizeof(uint64_t) * pb_entries);
    memset(self->pb_pending, 0, sizeof(long long) * pb_entries);
    memset(self->pht_valid, 0, self->pht_sets * self->pht_ways);
    self->pht_clock = 0;
    self->dc_value = 0;
    self->pht_lookups = self->pht_hits = self->pht_updates = 0;
    self->pht_predictions = self->streaming_predictions = 0;
    self->backup_activations = self->promotions = 0;
    Py_RETURN_NONE;
}

static PyMethodDef Gaze_methods[] = {
    {"train", (PyCFunction)(void (*)(void))Gaze_train, METH_FASTCALL,
     "One train step; returns a list of packed prefetches."},
    {"evict", (PyCFunction)Gaze_evict, METH_O,
     "Deactivate the region of an evicted block."},
    {"drain", (PyCFunction)Gaze_drain, METH_NOARGS,
     "Deactivate all tracked regions (learns their footprints)."},
    {"counters", (PyCFunction)Gaze_counters, METH_NOARGS,
     "(pht_lookups, pht_hits, pht_updates, pht_predictions, "
     "streaming_predictions, backup_activations, promotions)."},
    {"reset", (PyCFunction)Gaze_reset, METH_NOARGS, "Clear all state."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject GazeKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels.GazeKernel",
    .tp_basicsize = sizeof(GazeKernel),
    .tp_dealloc = (destructor)Gaze_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C twin of GazePrefetcher's state machine.",
    .tp_methods = Gaze_methods,
    .tp_init = (initproc)Gaze_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================== */
/* PMPKernel: C twin of PMPPrefetcher.train / on_cache_eviction        */
/* ================================================================== */
typedef struct {
    PyObject_HEAD
    int blocks;
    long long region_size;
    int region_shift; /* -1 when region_size is not a power of two */
    int max_confidence;
    int anchor;
    uint64_t block_mask;
    long long *l1_min; /* max_confidence + 1 integer thresholds */
    long long *l2_min;
    /* filter table: region -> trigger offset */
    FTable ft;
    long long *ft_off;
    /* accumulation table: region -> (trigger offset, footprint) */
    FTable at;
    long long *at_trig;
    uint64_t *at_foot;
    /* offset pattern table: blocks x blocks counters + merge counts */
    int *opt;
    int *merge_counts;
    long long out_buf[64]; /* packed prefetches from the last train_impl */
} PMPKernel;

static void
PMP_dealloc(PMPKernel *self)
{
    ft_dealloc(&self->ft);
    ft_dealloc(&self->at);
    PyMem_Free(self->l1_min);
    PyMem_Free(self->l2_min);
    PyMem_Free(self->ft_off);
    PyMem_Free(self->at_trig);
    PyMem_Free(self->at_foot);
    PyMem_Free(self->opt);
    PyMem_Free(self->merge_counts);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static long long *
load_min_table(PyObject *seq, int entries, const char *name)
{
    PyObject *fast = PySequence_Fast(seq, "threshold table must be a sequence");
    if (!fast)
        return NULL;
    if (PySequence_Fast_GET_SIZE(fast) != entries) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s must have %d entries", name, entries);
        return NULL;
    }
    long long *out = PyMem_Malloc(sizeof(long long) * entries);
    if (!out) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return NULL;
    }
    for (int i = 0; i < entries; i++) {
        out[i] = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (out[i] == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            PyMem_Free(out);
            return NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

static int
PMP_init(PMPKernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "blocks", "region_size", "filter_entries", "accumulation_entries",
        "max_confidence", "anchor", "l1_min", "l2_min",
        NULL,
    };
    int ft_entries, at_entries;
    PyObject *l1_min, *l2_min;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iLiiiiOO", kwlist,
            &self->blocks, &self->region_size, &ft_entries, &at_entries,
            &self->max_confidence, &self->anchor, &l1_min, &l2_min))
        return -1;
    if (self->blocks <= 0 || self->blocks > 64) {
        PyErr_SetString(PyExc_ValueError,
                        "PMPKernel requires 1 <= blocks_per_region <= 64");
        return -1;
    }
    if (self->max_confidence <= 0) {
        PyErr_SetString(PyExc_ValueError, "max_confidence must be positive");
        return -1;
    }
    if ((self->region_size & (self->region_size - 1)) == 0) {
        int shift = 0;
        long long r = self->region_size;
        while (r > 1) { r >>= 1; shift++; }
        self->region_shift = shift;
    } else {
        self->region_shift = -1;
    }
    self->block_mask = mask_n(self->blocks);
    self->l1_min = load_min_table(l1_min, self->max_confidence + 1, "l1_min");
    if (!self->l1_min)
        return -1;
    self->l2_min = load_min_table(l2_min, self->max_confidence + 1, "l2_min");
    if (!self->l2_min)
        return -1;
    if (ft_init(&self->ft, ft_entries) < 0 || ft_init(&self->at, at_entries) < 0)
        goto nomem;
    self->ft_off = PyMem_Malloc(sizeof(long long) * ft_entries);
    self->at_trig = PyMem_Malloc(sizeof(long long) * at_entries);
    self->at_foot = PyMem_Malloc(sizeof(uint64_t) * at_entries);
    int opt_size = self->blocks * self->blocks;
    self->opt = PyMem_Malloc(sizeof(int) * opt_size);
    self->merge_counts = PyMem_Malloc(sizeof(int) * self->blocks);
    if (!self->ft_off || !self->at_trig || !self->at_foot || !self->opt ||
        !self->merge_counts)
        goto nomem;
    memset(self->opt, 0, sizeof(int) * opt_size);
    memset(self->merge_counts, 0, sizeof(int) * self->blocks);
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

/* Exact port of PMPPrefetcher._merge (anchored rotation + saturating
 * counter walk over set bits, decay over clear bits at saturation). */
static void
pmp_merge(PMPKernel *self, long long trigger_offset, uint64_t footprint)
{
    const int blocks = self->blocks;
    const int max_conf = self->max_confidence;
    uint64_t pattern = footprint & self->block_mask;
    if (self->anchor && trigger_offset)
        pattern = ((pattern << (blocks - trigger_offset)) |
                   (pattern >> trigger_offset)) & self->block_mask;
    int *counters = self->opt + (size_t)trigger_offset * blocks;
    int merged = self->merge_counts[trigger_offset] + 1;
    if (merged > max_conf)
        merged = max_conf;
    self->merge_counts[trigger_offset] = merged;
    uint64_t value = pattern;
    while (value) {
        int b = __builtin_ctzll(value);
        value &= value - 1;
        int count = counters[b] + 1;
        counters[b] = count < max_conf ? count : max_conf;
    }
    if (merged >= max_conf) {
        value = ~pattern & self->block_mask;
        while (value) {
            int b = __builtin_ctzll(value);
            value &= value - 1;
            if (counters[b] > 0)
                counters[b]--;
        }
    }
}

static int
pmp_train_impl(PMPKernel *self, long long address)
{
    long long region, offset;
    if (self->region_shift >= 0) {
        region = address >> self->region_shift;
        offset = (address >> 6) & (long long)(self->blocks - 1);
    } else {
        region = address / self->region_size;
        offset = (address % self->region_size) >> 6;
    }

    /* Tracked region: accumulate the footprint, nothing to predict. */
    int slot = ft_find(&self->at, region);
    if (slot >= 0) {
        ft_touch(&self->at, slot);
        self->at_foot[slot] |= (uint64_t)1 << offset;
        return -1;
    }

    int fslot = ft_find(&self->ft, region);
    if (fslot >= 0) {
        long long trigger_offset = self->ft_off[fslot];
        if (trigger_offset == offset) {
            /* Same block touched again: still a one-bit footprint. */
            ft_touch(&self->ft, fslot);
            return -1;
        }
        /* Activation: FT -> AT; a displaced AT entry deactivates and
         * its footprint is merged (train merges deactivations
         * before checking the trigger, which is None here). */
        ft_drop_slot(&self->ft, fslot);
        int evicted;
        slot = ft_insert(&self->at, region, &evicted);
        if (evicted)
            pmp_merge(self, self->at_trig[slot], self->at_foot[slot]);
        self->at_trig[slot] = trigger_offset;
        self->at_foot[slot] =
            ((uint64_t)1 << trigger_offset) | ((uint64_t)1 << offset);
        return -1;
    }

    /* Brand-new region: FT allocation (silent LRU) + trigger prediction. */
    int evicted;
    fslot = ft_insert(&self->ft, region, &evicted);
    self->ft_off[fslot] = offset;

    int observed = self->merge_counts[offset];
    if (observed == 0)
        return -1;
    const int max_conf = self->max_confidence;
    int scale = observed < max_conf ? observed : max_conf;
    const long long l1m = self->l1_min[scale];
    const long long l2m = self->l2_min[scale];
    const int blocks = self->blocks;
    const int anchor = self->anchor;
    const long long base = region * blocks;
    const int *counters = self->opt + (size_t)offset * blocks;
    int count_out = 0;
    for (int b = 0; b < blocks; b++) {
        long long count = counters[b];
        if (count < l2m)
            continue;
        long long target_offset = anchor ? (b + offset) % blocks : b;
        if (target_offset == offset)
            continue;
        self->out_buf[count_out++] =
            ((base + target_offset) << 1) | (count >= l1m ? 1 : 0);
    }
    return count_out;
}

static PyObject *
PMP_train(PMPKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "train(pc, address)");
        return NULL;
    }
    long long address = PyLong_AsLongLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return packed_result(self->out_buf, pmp_train_impl(self, address));
}

static void
pmp_evict_impl(PMPKernel *self, long long block)
{
    long long region;
    if (self->region_shift >= 0)
        region = block >> (self->region_shift - 6);
    else
        region = (block << 6) / self->region_size;
    int slot = ft_find(&self->at, region);
    if (slot >= 0) {
        pmp_merge(self, self->at_trig[slot], self->at_foot[slot]);
        ft_drop_slot(&self->at, slot);
    }
}

static PyObject *
PMP_evict(PMPKernel *self, PyObject *arg)
{
    long long block = PyLong_AsLongLong(arg);
    if (block == -1 && PyErr_Occurred())
        return NULL;
    pmp_evict_impl(self, block);
    Py_RETURN_NONE;
}

static PyObject *
PMP_reset(PMPKernel *self, PyObject *Py_UNUSED(ignored))
{
    ft_clear(&self->ft);
    ft_clear(&self->at);
    memset(self->opt, 0, sizeof(int) * self->blocks * self->blocks);
    memset(self->merge_counts, 0, sizeof(int) * self->blocks);
    Py_RETURN_NONE;
}

static PyMethodDef PMP_methods[] = {
    {"train", (PyCFunction)(void (*)(void))PMP_train, METH_FASTCALL,
     "One train step; returns a list of packed prefetches."},
    {"evict", (PyCFunction)PMP_evict, METH_O,
     "Deactivate (and merge) the region of an evicted block."},
    {"reset", (PyCFunction)PMP_reset, METH_NOARGS, "Clear all state."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PMPKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels.PMPKernel",
    .tp_basicsize = sizeof(PMPKernel),
    .tp_dealloc = (destructor)PMP_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C twin of PMPPrefetcher's train state machine.",
    .tp_methods = PMP_methods,
    .tp_init = (initproc)PMP_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================== */
/* TriangelKernel: C twin of TriangelPrefetcher.train                  */
/* ================================================================== */
typedef struct {
    PyObject_HEAD
    int sample_rate;
    int markov_sets;
    int markov_ways;
    int degree;
    int distance;
    int train_threshold;
    int predict_threshold;
    int max_confidence;
    /* training unit: pc -> (history ring, reuse confidence, observed) */
    FTable training;
    long long *tr_hist; /* `distance` blocks per slot */
    int *tr_start;
    int *tr_len;
    int *tr_conf;
    long long *tr_observed;
    /* sample table: block -> owning pc */
    FTable samples;
    long long *sample_pc;
    /* Markov table: per-set ordered arrays, index 0 = LRU */
    long long *mk_tag;
    long long *mk_succ;
    int *mk_conf;
    int *mk_count;
    long long out_buf[64]; /* packed prefetches from the last train_impl */
} TriangelKernel;

static void
Triangel_dealloc(TriangelKernel *self)
{
    ft_dealloc(&self->training);
    ft_dealloc(&self->samples);
    PyMem_Free(self->tr_hist);
    PyMem_Free(self->tr_start);
    PyMem_Free(self->tr_len);
    PyMem_Free(self->tr_conf);
    PyMem_Free(self->tr_observed);
    PyMem_Free(self->sample_pc);
    PyMem_Free(self->mk_tag);
    PyMem_Free(self->mk_succ);
    PyMem_Free(self->mk_conf);
    PyMem_Free(self->mk_count);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
Triangel_init(TriangelKernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "training_entries", "sample_entries", "sample_rate", "markov_sets",
        "markov_ways", "degree", "distance", "train_threshold",
        "predict_threshold", "max_confidence",
        NULL,
    };
    int training_entries, sample_entries;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iiiiiiiiii", kwlist,
            &training_entries, &sample_entries, &self->sample_rate,
            &self->markov_sets, &self->markov_ways, &self->degree,
            &self->distance, &self->train_threshold, &self->predict_threshold,
            &self->max_confidence))
        return -1;
    if (training_entries <= 0 || sample_entries <= 0 ||
        self->markov_sets <= 0 || self->markov_ways <= 0) {
        PyErr_SetString(PyExc_ValueError, "table sizes must be positive");
        return -1;
    }
    if (self->sample_rate <= 0 || self->degree <= 0 || self->distance <= 0) {
        PyErr_SetString(PyExc_ValueError,
                        "sample_rate, degree and distance must be positive");
        return -1;
    }
    if (self->degree > 64) {
        /* The predict walk keeps its `seen` set on the stack. */
        PyErr_SetString(PyExc_ValueError,
                        "TriangelKernel supports at most degree 64");
        return -1;
    }
    if (ft_init(&self->training, training_entries) < 0 ||
        ft_init(&self->samples, sample_entries) < 0)
        goto nomem;
    self->tr_hist =
        PyMem_Malloc(sizeof(long long) * training_entries * self->distance);
    self->tr_start = PyMem_Malloc(sizeof(int) * training_entries);
    self->tr_len = PyMem_Malloc(sizeof(int) * training_entries);
    self->tr_conf = PyMem_Malloc(sizeof(int) * training_entries);
    self->tr_observed = PyMem_Malloc(sizeof(long long) * training_entries);
    self->sample_pc = PyMem_Malloc(sizeof(long long) * sample_entries);
    int mk_size = self->markov_sets * self->markov_ways;
    self->mk_tag = PyMem_Malloc(sizeof(long long) * mk_size);
    self->mk_succ = PyMem_Malloc(sizeof(long long) * mk_size);
    self->mk_conf = PyMem_Malloc(sizeof(int) * mk_size);
    self->mk_count = PyMem_Malloc(sizeof(int) * self->markov_sets);
    if (!self->tr_hist || !self->tr_start || !self->tr_len ||
        !self->tr_conf || !self->tr_observed || !self->sample_pc ||
        !self->mk_tag || !self->mk_succ || !self->mk_conf || !self->mk_count)
        goto nomem;
    memset(self->mk_count, 0, sizeof(int) * self->markov_sets);
    return 0;
nomem:
    PyErr_NoMemory();
    return -1;
}

static inline int
mk_find(TriangelKernel *self, int set, long long tag)
{
    const long long *tags = self->mk_tag + (size_t)set * self->markov_ways;
    const int n = self->mk_count[set];
    for (int i = 0; i < n; i++)
        if (tags[i] == tag)
            return i;
    return -1;
}

/* Move entry i of a set to the MRU position (OrderedDict.move_to_end). */
static void
mk_touch(TriangelKernel *self, int set, int i)
{
    int n = self->mk_count[set];
    if (i == n - 1)
        return;
    size_t base = (size_t)set * self->markov_ways;
    long long tag = self->mk_tag[base + i];
    long long succ = self->mk_succ[base + i];
    int conf = self->mk_conf[base + i];
    int tail = n - i - 1;
    memmove(self->mk_tag + base + i, self->mk_tag + base + i + 1,
            sizeof(long long) * tail);
    memmove(self->mk_succ + base + i, self->mk_succ + base + i + 1,
            sizeof(long long) * tail);
    memmove(self->mk_conf + base + i, self->mk_conf + base + i + 1,
            sizeof(int) * tail);
    self->mk_tag[base + n - 1] = tag;
    self->mk_succ[base + n - 1] = succ;
    self->mk_conf[base + n - 1] = conf;
}

/* Exact port of TriangelPrefetcher._markov_update. */
static void
mk_update(TriangelKernel *self, long long prev_block, long long block)
{
    int set = (int)(prev_block % self->markov_sets);
    long long tag = prev_block / self->markov_sets;
    int i = mk_find(self, set, tag);
    size_t base = (size_t)set * self->markov_ways;
    if (i >= 0) {
        mk_touch(self, set, i);
        size_t idx = base + self->mk_count[set] - 1;
        if (self->mk_succ[idx] == block) {
            int conf = self->mk_conf[idx] + 1;
            self->mk_conf[idx] =
                conf < self->max_confidence ? conf : self->max_confidence;
        } else {
            self->mk_conf[idx] -= 1;
            if (self->mk_conf[idx] <= 0) {
                self->mk_succ[idx] = block;
                self->mk_conf[idx] = 1;
            }
        }
        return;
    }
    int n = self->mk_count[set];
    if (n >= self->markov_ways) {
        /* Evict the set LRU (index 0). */
        memmove(self->mk_tag + base, self->mk_tag + base + 1,
                sizeof(long long) * (n - 1));
        memmove(self->mk_succ + base, self->mk_succ + base + 1,
                sizeof(long long) * (n - 1));
        memmove(self->mk_conf + base, self->mk_conf + base + 1,
                sizeof(int) * (n - 1));
        n--;
    }
    self->mk_tag[base + n] = tag;
    self->mk_succ[base + n] = block;
    self->mk_conf[base + n] = 1;
    self->mk_count[set] = n + 1;
}

static int
triangel_train_impl(TriangelKernel *self, long long pc, long long address)
{
    long long block = address >> 6;
    FTable *tr = &self->training;
    int slot = ft_find(tr, pc);
    if (slot < 0) {
        int evicted;
        slot = ft_insert(tr, pc, &evicted);
        self->tr_hist[(size_t)slot * self->distance] = block;
        self->tr_start[slot] = 0;
        self->tr_len[slot] = 1;
        self->tr_conf[slot] = 0;
        self->tr_observed[slot] = 0;
        return -1;
    }
    ft_touch(tr, slot);

    /* ---- sampler (exact port of _sample) ---- */
    int s = ft_find(&self->samples, block);
    if (s >= 0) {
        long long owner = self->sample_pc[s];
        ft_drop_slot(&self->samples, s);
        int o = ft_find(tr, owner);
        if (o >= 0) {
            int conf = self->tr_conf[o] + 1;
            self->tr_conf[o] =
                conf < self->max_confidence ? conf : self->max_confidence;
        }
    } else {
        self->tr_observed[slot] += 1;
        if (self->tr_observed[slot] % self->sample_rate == 0) {
            int evicted;
            int s2 = ft_insert(&self->samples, block, &evicted);
            if (evicted) {
                /* The sample aged out unused: back off its owning PC. */
                long long ev_owner = self->sample_pc[s2];
                int o = ft_find(tr, ev_owner);
                if (o >= 0 && self->tr_conf[o] > 0)
                    self->tr_conf[o] -= 1;
            }
            self->sample_pc[s2] = pc;
        }
    }

    const int trained = self->tr_conf[slot] >= self->train_threshold;
    const int distance = self->distance;
    long long *hist = self->tr_hist + (size_t)slot * distance;
    int hstart = self->tr_start[slot];
    int hlen = self->tr_len[slot];
    if (hlen >= distance) {
        long long h0 = hist[hstart];
        if (trained && h0 != block)
            mk_update(self, h0, block);
        int trim = hlen - distance + 1;
        hstart += trim;
        if (hstart >= distance)
            hstart -= distance;
        hlen -= trim;
    }
    int pos = hstart + hlen;
    if (pos >= distance)
        pos -= distance;
    hist[pos] = block;
    hlen++;
    self->tr_start[slot] = hstart;
    self->tr_len[slot] = hlen;
    if (!trained)
        return -1;

    /* ---- predict: chained Markov walk, all L1 hints ---- */
    long long seen[65];
    int seen_n = 0;
    seen[seen_n++] = block;
    long long current = block;
    int count = 0;
    for (int hop = 0; hop < self->degree; hop++) {
        int set = (int)(current % self->markov_sets);
        long long tag = current / self->markov_sets;
        int mi = mk_find(self, set, tag);
        if (mi < 0)
            break;
        size_t idx = (size_t)set * self->markov_ways + mi;
        if (self->mk_conf[idx] < self->predict_threshold)
            break;
        long long target = self->mk_succ[idx];
        int dup = 0;
        for (int j = 0; j < seen_n; j++)
            if (seen[j] == target) { dup = 1; break; }
        if (dup)
            break;
        seen[seen_n++] = target;
        self->out_buf[count++] = (target << 1) | 1;
        current = target;
    }
    return count;
}

static PyObject *
Triangel_train(TriangelKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "train(pc, address)");
        return NULL;
    }
    long long pc = PyLong_AsLongLong(args[0]);
    long long address = PyLong_AsLongLong(args[1]);
    if (PyErr_Occurred())
        return NULL;
    return packed_result(self->out_buf, triangel_train_impl(self, pc, address));
}

static PyObject *
Triangel_reset(TriangelKernel *self, PyObject *Py_UNUSED(ignored))
{
    ft_clear(&self->training);
    ft_clear(&self->samples);
    memset(self->mk_count, 0, sizeof(int) * self->markov_sets);
    Py_RETURN_NONE;
}

static PyMethodDef Triangel_methods[] = {
    {"train", (PyCFunction)(void (*)(void))Triangel_train, METH_FASTCALL,
     "One miss-stream train step; returns a list of packed prefetches."},
    {"reset", (PyCFunction)Triangel_reset, METH_NOARGS, "Clear all state."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject TriangelKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels.TriangelKernel",
    .tp_basicsize = sizeof(TriangelKernel),
    .tp_dealloc = (destructor)Triangel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C twin of TriangelPrefetcher's train state machine.",
    .tp_methods = Triangel_methods,
    .tp_init = (initproc)Triangel_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================== */
/* DriverKernel — the batched driver loop of
 * repro.sim.simulator._execute_batched in C, one per-access loop like
 * its Python twin: array-backed L1/L2/LLC state, the inlined demand
 * chain with exact eviction-listener semantics, the packed PQ drain,
 * MSHR min-ready bookkeeping, DRAM bank/channel timing and the
 * simple-core clock.  The Python batched
 * driver stays the bit-exact oracle; repro.sim.driver loads a snapshot
 * of the live hierarchy, feeds whole BatchedTrace chunks per run()
 * call, drains the prefetch queue and MSHR file with flush() at the end
 * of a run, and exports the cache/DRAM/MSHR state back only when it is
 * read.
 *
 * The per-access body is one inlined drv_step shared by the single-core
 * run() loop and run_mix(), the round-robin N-core loop of
 * MultiCoreSimulator._run_exact.  Each kernel
 * is one core: private L1/L2, MSHR, PQ, core clock, prefetcher and stat
 * deltas (its LLC and DRAM counters included).  The LLC tags/flags and
 * the DRAM bank/row/channel state sit in a reference-counted DrvShared
 * that a kernel built with shared=<kernel> borrows, so the cores of a
 * mix contend for one LLC and one DRAM.  run_mix() returns whenever a
 * measuring core reaches its budget; Python closes that core's
 * measurement (sync, drain, sink swap) and resumes from the next core,
 * so the C side keeps no second stats path.
 *
 * Prefetchers without a C train twin run as DRV_PF_PYTHON: the loop
 * calls the Python train(pc, address, cycle, result) bound method once
 * per load — result is one of five reused AccessResult objects, mutated
 * exactly as the Python driver mutates its own — and on_cache_eviction
 * (block) once per L1 eviction (only when the prefetcher overrides the
 * base no-op).  A callback that raises sets cb_failed: no further
 * Python call is made, the current access completes in C, and run() or
 * flush() returns NULL with the original exception.                  */

#define CB_PREFETCHED 1u
#define CB_USEFUL 2u
#define CB_FROM_DRAM 4u
#define CB_DIRTY 8u
#define CB_COUNTED 16u

enum {
    DRV_PF_NONE = 0,
    DRV_PF_BERTI = 1,
    DRV_PF_GAZE = 2,
    DRV_PF_PMP = 3,
    DRV_PF_TRIANGEL = 4,
    DRV_PF_PYTHON = 5,
};

/* Index of the reused AccessResult handed to a Python train callback
 * (the Python driver's result_l1 / _l2 / _llc / _dram / _inflight). */
enum { RES_L1, RES_L2, RES_LLC, RES_DRAM, RES_INFLIGHT, RES_COUNT };

/* Interned attribute names of the Python callback protocol. */
static PyObject *str_latency, *str_served, *str_late;

/* One set-associative cache level: rows stored LRU -> MRU (index 0 is
 * the eviction victim, mirroring dict insertion order in the oracle). */
typedef struct {
    int sets;
    int ways;
    long long mask;      /* sets - 1 (power-of-two set counts only)    */
    long long *tag;      /* sets * ways block numbers                  */
    unsigned char *flag; /* parallel CB_* flag bytes                   */
    int *size;           /* live entries per set                       */
} DCache;

/* One core's counter deltas for one cache level (Cache.hits / misses /
 * evictions / useless_prefetch_evictions).  Kept per core even for the
 * shared LLC, so each core drains its own share onto the shared object. */
typedef struct {
    long long hits, misses, evictions, useless;
} DCount;

typedef struct {
    long long *tag;
    unsigned char *flg;
    long long set;
    int n;
} DCRow;

static int
dc_init(DCache *c, int sets, int ways)
{
    c->sets = sets;
    c->ways = ways;
    c->mask = (long long)sets - 1;
    c->tag = PyMem_Malloc(sizeof(long long) * (size_t)sets * (size_t)ways);
    c->flag = PyMem_Malloc(sizeof(unsigned char) * (size_t)sets * (size_t)ways);
    c->size = PyMem_Malloc(sizeof(int) * (size_t)sets);
    if (!c->tag || !c->flag || !c->size)
        return -1;
    memset(c->size, 0, sizeof(int) * (size_t)sets);
    return 0;
}

static void
dc_free(DCache *c)
{
    PyMem_Free(c->tag);
    PyMem_Free(c->flag);
    PyMem_Free(c->size);
    c->tag = NULL;
    c->flag = NULL;
    c->size = NULL;
}

static inline DCRow
dc_row(DCache *c, long long block)
{
    DCRow r;
    r.set = block & c->mask;
    r.tag = c->tag + (size_t)r.set * (size_t)c->ways;
    r.flg = c->flag + (size_t)r.set * (size_t)c->ways;
    r.n = c->size[r.set];
    return r;
}

static inline int
dcrow_find(const DCRow *r, long long block)
{
    for (int i = 0; i < r->n; i++)
        if (r->tag[i] == block)
            return i;
    return -1;
}

/* LRU touch: move position `pos` to the MRU end (dict del/re-insert). */
static inline void
dcrow_touch(DCRow *r, int pos)
{
    if (pos == r->n - 1)
        return;
    long long t = r->tag[pos];
    unsigned char f = r->flg[pos];
    memmove(r->tag + pos, r->tag + pos + 1,
            sizeof(long long) * (size_t)(r->n - 1 - pos));
    memmove(r->flg + pos, r->flg + pos + 1,
            sizeof(unsigned char) * (size_t)(r->n - 1 - pos));
    r->tag[r->n - 1] = t;
    r->flg[r->n - 1] = f;
}

static inline int
dc_contains(DCache *c, long long block)
{
    DCRow r = dc_row(c, block);
    return dcrow_find(&r, block) >= 0;
}

/* The state a multi-core mix shares: LLC tags/flags and DRAM
 * bank/row/channel timing.  Reference-counted: the kernel that creates
 * it holds one reference and every kernel built with shared=<kernel>
 * borrows another, so it lives until the last of them is freed. */
typedef struct {
    Py_ssize_t refs;
    DCache llc;
    /* DRAM (dr_banks = banks per channel)                             */
    int dr_channels, dr_banks;
    long long dr_row_div, dr_lat_row_hit, dr_lat_row_miss;
    double dr_transfer;
    long long *dr_open_row;   /* per global bank, -1 == closed         */
    double *dr_bank_busy;     /* per global bank                       */
    double *dr_channel_busy;  /* per channel                           */
} DrvShared;

static void
drv_shared_release(DrvShared *s)
{
    if (s == NULL || --s->refs > 0)
        return;
    dc_free(&s->llc);
    PyMem_Free(s->dr_open_row);
    PyMem_Free(s->dr_bank_busy);
    PyMem_Free(s->dr_channel_busy);
    PyMem_Free(s);
}

/* A fresh shared state (cold LLC, closed rows, idle banks), or NULL
 * with MemoryError set. */
static DrvShared *
drv_shared_new(int llc_sets, int llc_ways, int channels, int banks,
               long long row_div, long long row_hit, long long row_miss,
               double transfer)
{
    DrvShared *s = PyMem_Calloc(1, sizeof(DrvShared));
    if (s == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    s->refs = 1;
    s->dr_channels = channels;
    s->dr_banks = banks;
    s->dr_row_div = row_div;
    s->dr_lat_row_hit = row_hit;
    s->dr_lat_row_miss = row_miss;
    s->dr_transfer = transfer;
    size_t total_banks = (size_t)channels * (size_t)banks;
    s->dr_open_row = PyMem_Malloc(sizeof(long long) * total_banks);
    s->dr_bank_busy = PyMem_Malloc(sizeof(double) * total_banks);
    s->dr_channel_busy = PyMem_Malloc(sizeof(double) * (size_t)channels);
    if (dc_init(&s->llc, llc_sets, llc_ways) < 0 || !s->dr_open_row
        || !s->dr_bank_busy || !s->dr_channel_busy) {
        drv_shared_release(s);
        PyErr_NoMemory();
        return NULL;
    }
    for (size_t b = 0; b < total_banks; b++) {
        s->dr_open_row[b] = -1;
        s->dr_bank_busy[b] = 0.0;
    }
    for (int c = 0; c < channels; c++)
        s->dr_channel_busy[c] = 0.0;
    return s;
}

typedef struct {
    PyObject_HEAD
    /* private hierarchy; the LLC and DRAM live in *sh                 */
    DCache l1, l2;
    DrvShared *sh;
    DCount n1, n2, n3;        /* L1, L2 and this core's LLC counters   */
    long long lat_l1, lat_l2, lat_llc, lat_l2_source, lat_llc_source;
    /* L1 MSHR: insertion-ordered parallel arrays                      */
    int mshr_cap, mshr_n;
    long long *mshr_block;
    long long *mshr_ready;
    unsigned char *mshr_dram;
    long long mshr_min_ready; /* LLONG_MAX == +inf                     */
    /* prefetch queue: ring of packed ints (block << 1 | to_l1)        */
    int pq_cap, pq_head, pq_n, pq_drain;
    long long *pq;
    /* core */
    int width;
    double fetch_inc;
    long long rob, lq;
    int miss_limit;
    long long miss_threshold;
    long long instr;
    double fetch, last_retire, issue;
    long long *out_pos;       /* outstanding ring: issue positions     */
    double *out_comp;         /* parallel completion cycles            */
    int out_head, out_n, out_cap;
    double *missv;            /* outstanding misses (unsorted)         */
    int miss_n, miss_cap;
    double misses_min;        /* INFINITY == none                      */
    /* prefetcher twin (borrowed train state, owned reference); for
     * DRV_PF_PYTHON pf_kernel is the bound train method instead       */
    int ptype;
    PyObject *pf_kernel;
    PyObject *py_evict;              /* on_cache_eviction or NULL      */
    PyObject *py_results[RES_COUNT]; /* reused AccessResult objects    */
    int cb_failed;                   /* a callback raised              */
    /* decoded-trace identity cache                                    */
    PyObject *tr_key_addr, *tr_key_block;
    Py_ssize_t tr_len, tr_cap;
    long long *tr_addr, *tr_pc, *tr_block, *tr_gap;
    unsigned char *tr_kind;
    /* stat deltas accumulated since the last drain_stats()            */
    long long st_demand, st_l1_hits, st_l1_misses, st_l2_hits, st_l2_misses;
    long long st_llc_hits, st_llc_misses, st_dram_reads, st_latency;
    long long st_pf_generated, st_pf_issued, st_pf_drop_q, st_pf_drop_mshr;
    long long st_pf_redundant, st_pf_fill_l1, st_pf_fill_l2;
    long long st_pf_useful_l1, st_pf_useful_l2, st_pf_useless, st_pf_late;
    long long st_pf_covered;
    long long st_pq_enq, st_pq_drop;
    /* this core's DRAM traffic counters (DRAMModel.stats deltas)      */
    long long dr_requests, dr_demand, dr_prefetch;
    long long dr_row_hits, dr_row_misses, dr_queue_wait, dr_service;
} DriverKernel;

/* Forward an L1 eviction to the Python prefetcher's on_cache_eviction
 * (DRV_PF_PYTHON only; skipped once a callback has raised). */
static void
drv_py_evict(DriverKernel *d, long long block)
{
    if (d->cb_failed)
        return;
    PyObject *b = PyLong_FromLongLong(block);
    PyObject *r = b ? PyObject_CallOneArg(d->py_evict, b) : NULL;
    Py_XDECREF(b);
    if (r == NULL)
        d->cb_failed = 1;
    Py_XDECREF(r);
}

/* Fill `block` into `level` (1 = L1, 2 = L2, 3 = LLC; guaranteed
 * absent).  Replicates Cache.fill_absent: victim accounting, the
 * per-level eviction listeners (_count_useless_eviction on L1/L2 only,
 * the prefetcher eviction callback on L1 only), then MRU insertion. */
static void
drv_fill(DriverKernel *d, int level, long long block, unsigned char flags)
{
    DCache *c = level == 1 ? &d->l1 : level == 2 ? &d->l2 : &d->sh->llc;
    DCount *n = level == 1 ? &d->n1 : level == 2 ? &d->n2 : &d->n3;
    DCRow r = dc_row(c, block);
    if (r.n >= c->ways) {
        long long vtag = r.tag[0];
        unsigned char vf = r.flg[0];
        n->evictions++;
        if ((vf & CB_PREFETCHED) && !(vf & CB_USEFUL)) {
            n->useless++;
            if (level < 3)
                d->st_pf_useless++;
        }
        if (level == 1) {
            if (d->ptype == DRV_PF_GAZE)
                gaze_evict_impl((GazeKernel *)d->pf_kernel, vtag);
            else if (d->ptype == DRV_PF_PMP)
                pmp_evict_impl((PMPKernel *)d->pf_kernel, vtag);
            else if (d->py_evict != NULL)
                drv_py_evict(d, vtag);
        }
        memmove(r.tag, r.tag + 1, sizeof(long long) * (size_t)(r.n - 1));
        memmove(r.flg, r.flg + 1, sizeof(unsigned char) * (size_t)(r.n - 1));
        r.tag[r.n - 1] = block;
        r.flg[r.n - 1] = flags;
    } else {
        r.tag[r.n] = block;
        r.flg[r.n] = flags;
        c->size[r.set] = r.n + 1;
    }
}

/* DRAMModel.access: returns bus_done (caller derives the latency via
 * round(bus_done - cycle), banker's rounding == nearbyint under the
 * default FE_TONEAREST mode). */
static double
drv_dram(DriverKernel *d, long long block, long long cyc, int is_prefetch)
{
    DrvShared *s = d->sh;
    long long channel = block % s->dr_channels;
    long long bank =
        channel * s->dr_banks + (block / s->dr_channels) % s->dr_banks;
    long long row = block / s->dr_row_div;
    long long array_latency;
    if (s->dr_open_row[bank] == row) {
        array_latency = s->dr_lat_row_hit;
        d->dr_row_hits++;
    } else {
        array_latency = s->dr_lat_row_miss;
        d->dr_row_misses++;
        s->dr_open_row[bank] = row;
    }
    double bank_wait = s->dr_bank_busy[bank] - (double)cyc;
    if (bank_wait < 0.0)
        bank_wait = 0.0;
    double array_done = ((double)cyc + bank_wait) + (double)array_latency;
    s->dr_bank_busy[bank] = array_done;
    double bus_start = s->dr_channel_busy[channel];
    if (array_done > bus_start)
        bus_start = array_done;
    double bus_done = bus_start + s->dr_transfer;
    s->dr_channel_busy[channel] = bus_done;
    double bus_wait = bus_start - array_done;
    d->dr_requests++;
    if (is_prefetch)
        d->dr_prefetch++;
    else
        d->dr_demand++;
    d->dr_queue_wait +=
        (long long)(bank_wait + (bus_wait > 0.0 ? bus_wait : 0.0));
    d->dr_service += (long long)((double)array_latency + s->dr_transfer);
    return bus_done;
}

/* CoreTimingModel.begin_memory_access (with the preceding
 * advance_non_memory(gap) folded in, exactly as the batched driver
 * inlines them). */
static void
drv_begin(DriverKernel *d, long long gap)
{
    if (gap > 0) {
        d->instr += gap;
        d->fetch += (double)gap / (double)d->width;
    }
    d->instr += 1;
    d->fetch += d->fetch_inc;
    double issue = d->fetch;
    double last_retire = d->last_retire;
    while (d->out_n && d->instr - d->out_pos[d->out_head] >= d->rob) {
        double completion = d->out_comp[d->out_head];
        if (completion > issue)
            issue = completion;
        d->out_head++;
        if (d->out_head >= d->out_cap)
            d->out_head = 0;
        d->out_n--;
        if (completion > last_retire)
            last_retire = completion;
        if (issue > last_retire)
            last_retire = issue;
    }
    while (d->out_n >= d->lq) {
        double completion = d->out_comp[d->out_head];
        if (completion > issue)
            issue = completion;
        d->out_head++;
        if (d->out_head >= d->out_cap)
            d->out_head = 0;
        d->out_n--;
        if (completion > last_retire)
            last_retire = completion;
        if (issue > last_retire)
            last_retire = issue;
    }
    if (d->miss_n >= d->miss_limit) {
        for (int i = 1; i < d->miss_n; i++) { /* misses_list.sort() */
            double v = d->missv[i];
            int j = i;
            while (j > 0 && d->missv[j - 1] > v) {
                d->missv[j] = d->missv[j - 1];
                j--;
            }
            d->missv[j] = v;
        }
        int drop = 0;
        while (d->miss_n - drop >= d->miss_limit) {
            double completed = d->missv[drop++];
            if (completed > issue)
                issue = completed;
        }
        d->miss_n -= drop;
        memmove(d->missv, d->missv + drop,
                sizeof(double) * (size_t)d->miss_n);
        d->misses_min = d->miss_n ? d->missv[0] : INFINITY;
    }
    if (d->miss_n && d->misses_min <= issue) {
        int k = 0;
        double mn = INFINITY;
        for (int i = 0; i < d->miss_n; i++) {
            double c = d->missv[i];
            if (c > issue) {
                d->missv[k++] = c;
                if (c < mn)
                    mn = c;
            }
        }
        d->miss_n = k;
        d->misses_min = k ? mn : INFINITY;
    }
    while (d->out_n && d->out_comp[d->out_head] <= issue) {
        double completion = d->out_comp[d->out_head];
        d->out_head++;
        if (d->out_head >= d->out_cap)
            d->out_head = 0;
        d->out_n--;
        if (completion > last_retire)
            last_retire = completion;
        if (issue > last_retire)
            last_retire = issue;
    }
    d->issue = issue;
    d->last_retire = last_retire;
}

/* CoreTimingModel.complete_memory_access. */
static inline void
drv_complete(DriverKernel *d, long long latency)
{
    double completion = d->issue + (double)(latency > 1 ? latency : 1);
    int tail = d->out_head + d->out_n;
    if (tail >= d->out_cap)
        tail -= d->out_cap;
    d->out_pos[tail] = d->instr;
    d->out_comp[tail] = completion;
    d->out_n++;
    if (latency > d->miss_threshold) {
        d->missv[d->miss_n++] = completion;
        if (completion < d->misses_min)
            d->misses_min = completion;
    }
    if (d->issue > d->fetch)
        d->fetch = d->issue;
}

static inline int
drv_mshr_find(DriverKernel *d, long long block)
{
    for (int i = 0; i < d->mshr_n; i++)
        if (d->mshr_block[i] == block)
            return i;
    return -1;
}

/* MSHRFile.expire with the results discarded (has_free_entry's exact
 * behaviour in the prefetch-issue path): ready entries vanish without
 * filling, _min_ready is recomputed (also when nothing expired, which
 * repairs a stale-low minimum). Call only when
 * mshr_n && cycle >= mshr_min_ready (the hoisted fast path). */
static void
drv_mshr_expire_discard(DriverKernel *d, long long cycle)
{
    int k = 0;
    long long mn = LLONG_MAX;
    for (int i = 0; i < d->mshr_n; i++) {
        if (d->mshr_ready[i] <= cycle)
            continue;
        d->mshr_block[k] = d->mshr_block[i];
        d->mshr_ready[k] = d->mshr_ready[i];
        d->mshr_dram[k] = d->mshr_dram[i];
        if (d->mshr_ready[k] < mn)
            mn = d->mshr_ready[k];
        k++;
    }
    d->mshr_n = k;
    d->mshr_min_ready = k ? mn : LLONG_MAX;
}

/* CacheHierarchy.complete_ready_prefetches: expire + fill each done
 * entry into the L1 in insertion order (fills never read the MSHR, so
 * filling during the compaction is equivalent to the oracle's
 * collect-then-fill). Same call gate as drv_mshr_expire_discard. */
static void
drv_mshr_complete(DriverKernel *d, long long cycle)
{
    int k = 0;
    long long mn = LLONG_MAX;
    for (int i = 0; i < d->mshr_n; i++) {
        if (d->mshr_ready[i] <= cycle) {
            unsigned char fl = CB_PREFETCHED;
            if (d->mshr_dram[i])
                fl |= CB_FROM_DRAM;
            drv_fill(d, 1, d->mshr_block[i], fl);
            continue;
        }
        d->mshr_block[k] = d->mshr_block[i];
        d->mshr_ready[k] = d->mshr_ready[i];
        d->mshr_dram[k] = d->mshr_dram[i];
        if (d->mshr_ready[k] < mn)
            mn = d->mshr_ready[k];
        k++;
    }
    d->mshr_n = k;
    d->mshr_min_ready = k ? mn : LLONG_MAX;
}

/* The demand miss chain of Driver_run's per-access path
 * (everything below an L1 miss: L2 probe, LLC probe, DRAM access and
 * the refills).  Returns the demand latency; *served_by reports the
 * serving level (RES_L2 / RES_LLC / RES_DRAM) and *first_use whether an
 * L2 hit was the first demand use of a prefetched block. */
static long long
drv_demand_miss(DriverKernel *d, long long block, long long issue_cycle,
                int is_store, int *served_by, int *first_use)
{
    d->n1.misses++;
    d->st_l1_misses++;
    DCRow r2 = dc_row(&d->l2, block);
    int p2 = dcrow_find(&r2, block);
    if (p2 >= 0) {
        unsigned char f = r2.flg[p2];
        dcrow_touch(&r2, p2);
        d->n2.hits++;
        *served_by = RES_L2;
        *first_use = 0;
        if (f & CB_PREFETCHED) {
            if (!(f & CB_USEFUL))
                f |= CB_USEFUL;
            if (!(f & CB_COUNTED)) {
                f |= CB_COUNTED;
                *first_use = 1;
                d->st_pf_useful_l2++;
                if (f & CB_FROM_DRAM)
                    d->st_pf_covered++;
            }
        }
        r2.flg[r2.n - 1] = f;
        drv_fill(d, 1, block, (unsigned char)(is_store ? CB_DIRTY : 0));
        d->st_l2_hits++;
        d->st_latency += d->lat_l2;
        return d->lat_l2;
    }
    d->n2.misses++;
    d->st_l2_misses++;
    long long latency;
    unsigned char from_dram = 0;
    DCRow r3 = dc_row(&d->sh->llc, block);
    int p3 = dcrow_find(&r3, block);
    if (p3 >= 0) {
        unsigned char f = r3.flg[p3];
        dcrow_touch(&r3, p3);
        d->n3.hits++;
        if ((f & CB_PREFETCHED) && !(f & CB_USEFUL))
            f |= CB_USEFUL;
        r3.flg[r3.n - 1] = f;
        latency = d->lat_llc;
        d->st_llc_hits++;
        *served_by = RES_LLC;
    } else {
        d->n3.misses++;
        d->st_llc_misses++;
        double bus_done = drv_dram(d, block, issue_cycle, 0);
        latency = d->lat_llc
                  + (long long)nearbyint(bus_done - (double)issue_cycle);
        d->st_dram_reads++;
        from_dram = CB_FROM_DRAM;
        drv_fill(d, 3, block, CB_FROM_DRAM);
        *served_by = RES_DRAM;
    }
    drv_fill(d, 2, block, from_dram);
    drv_fill(d, 1, block,
             (unsigned char)(from_dram | (is_store ? CB_DIRTY : 0)));
    d->st_latency += latency;
    return latency;
}

/* CacheHierarchy._issue_prefetch over one packed PQ entry
 * (block << 1 | to_l1) at `cycle`: identical branch structure and
 * statistics, shared by the per-access drain and flush(). */
static void
drv_issue_prefetch(DriverKernel *d, long long p, long long cycle)
{
    long long pblock = p >> 1;
    if (dc_contains(&d->l1, pblock) || drv_mshr_find(d, pblock) >= 0) {
        d->st_pf_redundant++;
        return;
    }
    DCRow r2 = dc_row(&d->l2, pblock);
    int p2 = dcrow_find(&r2, pblock);
    int to_l1 = (int)(p & 1);
    if (!to_l1 && p2 >= 0) {
        d->st_pf_redundant++;
        return;
    }
    d->st_pf_issued++;
    unsigned char from_dram = 0;
    long long source_latency;
    if (p2 >= 0) {
        source_latency = d->lat_l2_source;
        dcrow_touch(&r2, p2);
    } else {
        DCRow r3 = dc_row(&d->sh->llc, pblock);
        int p3 = dcrow_find(&r3, pblock);
        if (p3 >= 0) {
            dcrow_touch(&r3, p3);
            source_latency = d->lat_llc_source;
        } else {
            double bus_done = drv_dram(d, pblock, cycle, 1);
            source_latency = d->lat_llc_source
                             + (long long)nearbyint(bus_done - (double)cycle);
            from_dram = CB_FROM_DRAM;
            drv_fill(d, 3, pblock, CB_FROM_DRAM);
        }
    }
    if (to_l1) {
        /* has_free_entry: expire-and-discard, then the capacity check. */
        if (d->mshr_n && cycle >= d->mshr_min_ready)
            drv_mshr_expire_discard(d, cycle);
        if (d->mshr_n >= d->mshr_cap) {
            d->st_pf_drop_mshr++;
            if (!dc_contains(&d->l2, pblock)) {
                drv_fill(d, 2, pblock,
                         (unsigned char)(CB_PREFETCHED | from_dram));
                d->st_pf_fill_l2++;
            }
            return;
        }
        long long ready = cycle + source_latency;
        d->mshr_block[d->mshr_n] = pblock;
        d->mshr_ready[d->mshr_n] = ready;
        d->mshr_dram[d->mshr_n] = from_dram ? 1 : 0;
        d->mshr_n++;
        if (ready < d->mshr_min_ready)
            d->mshr_min_ready = ready;
        d->st_pf_fill_l1++;
    } else if (!dc_contains(&d->l2, pblock)) {
        drv_fill(d, 2, pblock, (unsigned char)(CB_PREFETCHED | from_dram));
        d->st_pf_fill_l2++;
    } else {
        d->st_pf_redundant++;
    }
}

/* In-process train dispatch (packed requests without the Python
 * boundary).  Returns the packed count, -1 for "nothing" (no prefetch /
 * the Triangel L1-hit gate), and points *buf at the kernel's out_buf. */
static int
drv_train(DriverKernel *d, long long pc, long long address,
          long long cycle, long long latency, int l1_hit,
          const long long **buf)
{
    switch (d->ptype) {
    case DRV_PF_BERTI: {
        BertiKernel *k = (BertiKernel *)d->pf_kernel;
        *buf = k->out_buf;
        return berti_train_impl(k, pc, address, cycle, latency);
    }
    case DRV_PF_GAZE: {
        GazeKernel *k = (GazeKernel *)d->pf_kernel;
        *buf = k->out_buf;
        return gaze_train_impl(k, pc, address);
    }
    case DRV_PF_PMP: {
        PMPKernel *k = (PMPKernel *)d->pf_kernel;
        *buf = k->out_buf;
        return pmp_train_impl(k, address);
    }
    case DRV_PF_TRIANGEL: {
        TriangelKernel *k = (TriangelKernel *)d->pf_kernel;
        if (l1_hit)
            return -1; /* the training unit observes the L1 miss stream */
        *buf = k->out_buf;
        return triangel_train_impl(k, pc, address);
    }
    default:
        return -1;
    }
}

/* Append up to `cnt` packed prefetches to the PQ, with push()'s
 * bookkeeping batched per call as enqueue_prefetches does. */
static void
drv_enqueue(DriverKernel *d, const long long *buf, int cnt)
{
    int accepted = 0;
    for (int i = 0; i < cnt; i++) {
        if (d->pq_n < d->pq_cap) {
            int tail = d->pq_head + d->pq_n;
            if (tail >= d->pq_cap)
                tail -= d->pq_cap;
            d->pq[tail] = buf[i];
            d->pq_n++;
            accepted++;
        }
    }
    d->st_pq_enq += accepted;
    d->st_pf_generated += cnt;
    if (accepted != cnt) {
        d->st_pq_drop += cnt - accepted;
        d->st_pf_drop_q += cnt - accepted;
    }
}

static int
set_long_attr(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* One DRV_PF_PYTHON train step, the Python driver's object-protocol
 * branch: update the reused result exactly as the Python driver does
 * for the serving level, call train(pc, addr, cycle, result), and
 * enqueue each accepted packed int (block << 1 | to_l1) as returned.
 * An item that is not an int fails the call and is never enqueued. */
static void
drv_py_train(DriverKernel *d, long long pc, long long addr, long long cycle,
             long long latency, int served_by, int first_use)
{
    PyObject *result = d->py_results[served_by];
    switch (served_by) {
    case RES_L1:
    case RES_L2:
        if (PyObject_SetAttr(result, str_served,
                             first_use ? Py_True : Py_False) < 0)
            goto fail;
        break;
    case RES_DRAM:
        if (set_long_attr(result, str_latency, latency) < 0)
            goto fail;
        break;
    case RES_INFLIGHT:
        /* C MSHR entries are always prefetches: served and late. */
        if (set_long_attr(result, str_latency, latency) < 0
            || PyObject_SetAttr(result, str_served, Py_True) < 0
            || PyObject_SetAttr(result, str_late, Py_True) < 0)
            goto fail;
        break;
    default:
        break;
    }
    PyObject *args[4] = {
        PyLong_FromLongLong(pc), PyLong_FromLongLong(addr),
        PyLong_FromLongLong(cycle), result,
    };
    PyObject *ret = NULL;
    if (args[0] && args[1] && args[2])
        ret = PyObject_Vectorcall(d->pf_kernel, args, 4, NULL);
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    Py_XDECREF(args[2]);
    if (ret == NULL)
        goto fail;
    int truth = PyObject_IsTrue(ret);
    if (truth <= 0) {
        Py_DECREF(ret);
        if (truth < 0)
            goto fail;
        return;
    }
    PyObject *seq = PySequence_Fast(ret, "train() must return an iterable");
    Py_DECREF(ret);
    if (seq == NULL)
        goto fail;
    Py_ssize_t total = PySequence_Fast_GET_SIZE(seq);
    long long accepted = 0;
    for (Py_ssize_t i = 0; i < total && d->pq_n < d->pq_cap; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        long long packed = PyLong_AsLongLong(item);
        if (packed == -1 && PyErr_Occurred())
            goto fail_seq;
        int tail = d->pq_head + d->pq_n;
        if (tail >= d->pq_cap)
            tail -= d->pq_cap;
        d->pq[tail] = packed;
        d->pq_n++;
        accepted++;
    }
    Py_DECREF(seq);
    d->st_pq_enq += accepted;
    d->st_pf_generated += total;
    if (accepted != total) {
        d->st_pq_drop += total - accepted;
        d->st_pf_drop_q += total - accepted;
    }
    return;
fail_seq:
    Py_DECREF(seq);
fail:
    d->cb_failed = 1;
}

/* ------------------------------------------------------------------ */
/* Whole-driver invariant sweep (debug builds only; see ft_check).     */
/* ------------------------------------------------------------------ */
#ifdef REPRO_DEBUG_KERNELS
/* Per-set occupancy in range, every tag mapped to the set holding it,
 * no duplicate tag within a set. */
static int
dc_check(const DCache *c, const char *where)
{
    for (long long s = 0; s < c->sets; s++) {
        int n = c->size[s];
        DK_CHECK(n >= 0 && n <= c->ways, where, "set occupancy out of range");
        const long long *tag = c->tag + (size_t)s * (size_t)c->ways;
        for (int i = 0; i < n; i++) {
            DK_CHECK((tag[i] & c->mask) == s, where,
                     "tag stored in the wrong set");
            for (int j = i + 1; j < n; j++)
                DK_CHECK(tag[i] != tag[j], where, "duplicate tag in a set");
        }
    }
    return 0;
}

/* Everything one core owns: its L1/L2, MSHR, PQ, core ring and stat
 * deltas, and its train twin's tables. */
static int
drv_check_core(DriverKernel *d)
{
    if (dc_check(&d->l1, "L1") < 0 || dc_check(&d->l2, "L2") < 0)
        return -1;

    /* MSHR occupancy accounting.  The cached minimum may run stale-LOW:
     * the late-prefetch pop removes an entry without a recompute
     * (mirroring the oracle's dict pop), so it lower-bounds the true
     * minimum rather than equalling it; at n == 0 it is unconstrained. */
    DK_CHECK(d->mshr_n >= 0 && d->mshr_n <= d->mshr_cap, "MSHR",
             "occupancy out of range");
    if (d->mshr_n > 0) {
        long long mn = LLONG_MAX;
        for (int i = 0; i < d->mshr_n; i++) {
            if (d->mshr_ready[i] < mn)
                mn = d->mshr_ready[i];
            for (int j = i + 1; j < d->mshr_n; j++)
                DK_CHECK(d->mshr_block[i] != d->mshr_block[j], "MSHR",
                         "duplicate block");
        }
        DK_CHECK(d->mshr_min_ready <= mn, "MSHR",
                 "cached min above the true minimum");
    }

    /* Ring-buffer bounds; issue positions are retired in order, so the
     * outstanding ring must be position-sorted. */
    DK_CHECK(d->pq_n >= 0 && d->pq_n <= d->pq_cap, "PQ",
             "occupancy out of range");
    DK_CHECK(d->pq_head >= 0 && d->pq_head < d->pq_cap, "PQ",
             "head out of range");
    DK_CHECK(d->out_n >= 0 && d->out_n <= d->out_cap, "core ring",
             "occupancy out of range");
    DK_CHECK(d->out_head >= 0 && d->out_head < d->out_cap, "core ring",
             "head out of range");
    for (int i = 1; i < d->out_n; i++) {
        int a = (d->out_head + i - 1) % d->out_cap;
        int b = (d->out_head + i) % d->out_cap;
        DK_CHECK(d->out_pos[a] <= d->out_pos[b], "core ring",
                 "issue positions not monotonic");
    }

    /* Outstanding-miss minimum is maintained exactly (every removal
     * path recomputes it, unlike the MSHR's). */
    DK_CHECK(d->miss_n >= 0 && d->miss_n <= d->miss_cap, "core misses",
             "count out of range");
    if (d->miss_n == 0) {
        DK_CHECK(d->misses_min == INFINITY, "core misses",
                 "cached min not +inf while empty");
    } else {
        double mn = INFINITY;
        for (int i = 0; i < d->miss_n; i++)
            if (d->missv[i] < mn)
                mn = d->missv[i];
        DK_CHECK(d->misses_min == mn, "core misses", "cached min inexact");
    }

    /* Stat-delta conservation in the private levels: demands flow down
     * to the LLC without loss and the L1/L2 cache counters agree with
     * the drain deltas.  All of these hold between any two
     * drain_stats() zeroings. */
    DK_CHECK(d->st_demand == d->st_l1_hits + d->st_l1_misses, "stats",
             "demand != L1 hits + misses");
    DK_CHECK(d->st_l1_misses == d->st_l2_hits + d->st_l2_misses, "stats",
             "L1 misses != L2 hits + misses");
    DK_CHECK(d->st_l2_misses == d->st_llc_hits + d->st_llc_misses, "stats",
             "L2 misses != LLC hits + misses");
    DK_CHECK(d->st_pf_generated == d->st_pq_enq + d->st_pf_drop_q, "stats",
             "pf generated != enqueued + queue-dropped");
    DK_CHECK(d->st_pq_drop == d->st_pf_drop_q, "stats",
             "queue drop counters disagree");
    DK_CHECK(d->n1.misses == d->st_l1_misses, "stats",
             "L1 cache/delta miss counters disagree");
    DK_CHECK(d->n1.hits == d->st_l1_hits - d->st_pf_late, "stats",
             "L1 cache hits != delta hits - late prefetches");
    DK_CHECK(d->n2.hits == d->st_l2_hits && d->n2.misses == d->st_l2_misses,
             "stats", "L2 cache/delta counters disagree");

    /* The attached train twin's LRU tables. */
    switch (d->ptype) {
    case DRV_PF_BERTI:
        return ft_check(&((BertiKernel *)d->pf_kernel)->table, "Berti table");
    case DRV_PF_GAZE: {
        GazeKernel *k = (GazeKernel *)d->pf_kernel;
        if (ft_check(&k->ft, "Gaze FT") < 0 ||
            ft_check(&k->at, "Gaze AT") < 0 ||
            ft_check(&k->pb, "Gaze PB") < 0 ||
            ft_check(&k->dpct, "Gaze DPCT") < 0)
            return -1;
        break;
    }
    case DRV_PF_PMP: {
        PMPKernel *k = (PMPKernel *)d->pf_kernel;
        if (ft_check(&k->ft, "PMP FT") < 0 ||
            ft_check(&k->at, "PMP AT") < 0)
            return -1;
        break;
    }
    case DRV_PF_TRIANGEL: {
        TriangelKernel *k = (TriangelKernel *)d->pf_kernel;
        if (ft_check(&k->training, "Triangel training") < 0 ||
            ft_check(&k->samples, "Triangel samples") < 0)
            return -1;
        for (int s = 0; s < k->markov_sets; s++)
            DK_CHECK(k->mk_count[s] >= 0 && k->mk_count[s] <= k->markov_ways,
                     "Triangel Markov", "set occupancy out of range");
        break;
    }
    default:
        break;
    }
    return 0;
}

/* The state the `n` cores `ds` share: LLC occupancy, and the LLC and
 * DRAM conservation identities as sums over those cores (each core's
 * LLC and DRAM traffic lands in its own counters, drained with its
 * own stats). */
static int
drv_check_shared(DriverKernel *const *ds, Py_ssize_t n)
{
    if (dc_check(&ds[0]->sh->llc, "LLC") < 0)
        return -1;
    long long llc_hits = 0, llc_misses = 0, st_llc_hits = 0;
    long long st_llc_misses = 0, st_dram_reads = 0;
    long long requests = 0, demand = 0, prefetch = 0, rows = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        const DriverKernel *d = ds[k];
        DK_CHECK(d->sh == ds[0]->sh, "shared", "cores do not share state");
        llc_hits += d->n3.hits;
        llc_misses += d->n3.misses;
        st_llc_hits += d->st_llc_hits;
        st_llc_misses += d->st_llc_misses;
        st_dram_reads += d->st_dram_reads;
        requests += d->dr_requests;
        demand += d->dr_demand;
        prefetch += d->dr_prefetch;
        rows += d->dr_row_hits + d->dr_row_misses;
    }
    DK_CHECK(st_llc_misses == st_dram_reads, "stats",
             "LLC misses != DRAM reads");
    DK_CHECK(demand == st_dram_reads, "stats",
             "DRAM demand requests != DRAM reads");
    DK_CHECK(requests == demand + prefetch, "stats",
             "DRAM requests != demand + prefetch");
    DK_CHECK(requests == rows, "stats",
             "DRAM requests != row hits + misses");
    DK_CHECK(llc_hits == st_llc_hits && llc_misses == st_llc_misses,
             "stats", "LLC cache/delta counters disagree");
    return 0;
}

static int
drv_check(DriverKernel *d)
{
    return drv_check_core(d) < 0 ? -1 : drv_check_shared(&d, 1);
}

/* Sweep call for PyObject*-returning entry points; compiles away
 * entirely in release builds. */
#define DRV_CHECK(d)                                                   \
    do {                                                               \
        if (drv_check(d) < 0)                                          \
            return NULL;                                               \
    } while (0)
#else
#define DRV_CHECK(d) do { } while (0)
#endif /* REPRO_DEBUG_KERNELS */

/* Decode the BatchedTrace arrays into flat C arrays.  Keyed on the
 * identity of the addresses/blocks lists (BatchedTrace arrays are
 * frozen after decode and chunk streams always build fresh lists), so
 * repeated run() calls over the same in-memory trace copy once. */
static int
drv_load_trace(DriverKernel *d, PyObject *addresses, PyObject *pcs,
               PyObject *blocks, PyObject *gaps, PyObject *kinds)
{
    if (!PyList_Check(addresses) || !PyList_Check(pcs)
        || !PyList_Check(blocks) || !PyList_Check(gaps)) {
        PyErr_SetString(PyExc_TypeError, "trace arrays must be lists");
        return -1;
    }
    Py_ssize_t n = PyList_GET_SIZE(addresses);
    if (PyList_GET_SIZE(pcs) != n || PyList_GET_SIZE(blocks) != n
        || PyList_GET_SIZE(gaps) != n) {
        PyErr_SetString(PyExc_ValueError, "trace arrays length mismatch");
        return -1;
    }
    const char *kbuf;
    if (PyByteArray_Check(kinds)) {
        if (PyByteArray_GET_SIZE(kinds) != n) {
            PyErr_SetString(PyExc_ValueError, "kinds length mismatch");
            return -1;
        }
        kbuf = PyByteArray_AS_STRING(kinds);
    } else if (PyBytes_Check(kinds)) {
        if (PyBytes_GET_SIZE(kinds) != n) {
            PyErr_SetString(PyExc_ValueError, "kinds length mismatch");
            return -1;
        }
        kbuf = PyBytes_AS_STRING(kinds);
    } else {
        PyErr_SetString(PyExc_TypeError, "kinds must be bytes-like");
        return -1;
    }
    if (d->tr_key_addr != addresses || d->tr_key_block != blocks
        || d->tr_len != n) {
        if (n > d->tr_cap) {
            Py_ssize_t cap = n;
            long long *na = PyMem_Malloc(sizeof(long long) * (size_t)cap);
            long long *np = PyMem_Malloc(sizeof(long long) * (size_t)cap);
            long long *nb = PyMem_Malloc(sizeof(long long) * (size_t)cap);
            long long *ng = PyMem_Malloc(sizeof(long long) * (size_t)cap);
            unsigned char *nk = PyMem_Malloc((size_t)cap);
            if (!na || !np || !nb || !ng || !nk) {
                PyMem_Free(na);
                PyMem_Free(np);
                PyMem_Free(nb);
                PyMem_Free(ng);
                PyMem_Free(nk);
                PyErr_NoMemory();
                return -1;
            }
            PyMem_Free(d->tr_addr);
            PyMem_Free(d->tr_pc);
            PyMem_Free(d->tr_block);
            PyMem_Free(d->tr_gap);
            PyMem_Free(d->tr_kind);
            d->tr_addr = na;
            d->tr_pc = np;
            d->tr_block = nb;
            d->tr_gap = ng;
            d->tr_kind = nk;
            d->tr_cap = cap;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            long long a = PyLong_AsLongLong(PyList_GET_ITEM(addresses, i));
            long long p = PyLong_AsLongLong(PyList_GET_ITEM(pcs, i));
            long long b = PyLong_AsLongLong(PyList_GET_ITEM(blocks, i));
            long long g = PyLong_AsLongLong(PyList_GET_ITEM(gaps, i));
            if (PyErr_Occurred()) {
                d->tr_len = -1;
                Py_CLEAR(d->tr_key_addr);
                Py_CLEAR(d->tr_key_block);
                return -1;
            }
            d->tr_addr[i] = a;
            d->tr_pc[i] = p;
            d->tr_block[i] = b;
            d->tr_gap[i] = g;
        }
        Py_INCREF(addresses);
        Py_XSETREF(d->tr_key_addr, addresses);
        Py_INCREF(blocks);
        Py_XSETREF(d->tr_key_block, blocks);
        d->tr_len = n;
    }
    if (n)
        memcpy(d->tr_kind, kbuf, (size_t)n);
    return 0;
}

/* One access on the per-access path, the body shared by Driver_run and
 * the N-core run_mix (the twin of _CoreContext.step and of the loop
 * body of _execute_batched): the preceding gap and the
 * core clock, the packed PQ drain, the inlined demand chain and the
 * prefetcher's training.  Returns the instructions retired (gap + 1).
 * A raising Python callback leaves d->cb_failed set. */
static inline long long
drv_step(DriverKernel *d, long long address, long long pc, long long block,
         long long gap, int kind)
{
    long long lat_l1 = d->lat_l1;
    drv_begin(d, gap);
    long long issue_cycle = (long long)d->issue;
    int is_store = kind == 1;

    if (d->pq_n) {
        /* Packed PQ drain (issue_queued_prefetches). */
        int issued = 0;
        while (d->pq_n && issued < d->pq_drain) {
            long long p = d->pq[d->pq_head];
            d->pq_head++;
            if (d->pq_head >= d->pq_cap)
                d->pq_head = 0;
            d->pq_n--;
            issued++;
            drv_issue_prefetch(d, p, issue_cycle);
        }
    }

    /* Inlined demand_access. */
    d->st_demand++;
    long long latency;
    int served_by = RES_L1, first_use = 0;
    int infl = -1;
    if (d->mshr_n) {
        if (issue_cycle >= d->mshr_min_ready)
            drv_mshr_complete(d, issue_cycle);
        infl = drv_mshr_find(d, block);
    }
    if (infl >= 0) {
        /* Late prefetch: the block is in flight. */
        long long remaining = d->mshr_ready[infl] - issue_cycle;
        latency = remaining > lat_l1 ? remaining : lat_l1;
        unsigned char fl = CB_PREFETCHED | CB_USEFUL;
        if (d->mshr_dram[infl])
            fl |= CB_FROM_DRAM;
        if (is_store)
            fl |= CB_DIRTY;
        /* dict pop: no _min_ready recompute. */
        memmove(d->mshr_block + infl, d->mshr_block + infl + 1,
                sizeof(long long) * (size_t)(d->mshr_n - 1 - infl));
        memmove(d->mshr_ready + infl, d->mshr_ready + infl + 1,
                sizeof(long long) * (size_t)(d->mshr_n - 1 - infl));
        memmove(d->mshr_dram + infl, d->mshr_dram + infl + 1,
                sizeof(unsigned char) * (size_t)(d->mshr_n - 1 - infl));
        d->mshr_n--;
        drv_fill(d, 1, block, fl);
        d->st_l1_hits++;
        d->st_pf_useful_l1++;
        d->st_pf_late++;
        if (fl & CB_FROM_DRAM)
            d->st_pf_covered++;
        d->st_latency += latency;
        served_by = RES_INFLIGHT;
    } else {
        DCRow r1 = dc_row(&d->l1, block);
        int p1 = dcrow_find(&r1, block);
        if (p1 >= 0) {
            unsigned char f = r1.flg[p1];
            dcrow_touch(&r1, p1);
            d->n1.hits++;
            if (f & CB_PREFETCHED) {
                if (!(f & CB_USEFUL))
                    f |= CB_USEFUL;
                if (!(f & CB_COUNTED)) {
                    f |= CB_COUNTED;
                    first_use = 1;
                    d->st_pf_useful_l1++;
                    if (f & CB_FROM_DRAM)
                        d->st_pf_covered++;
                }
            }
            if (is_store)
                f |= CB_DIRTY;
            r1.flg[r1.n - 1] = f;
            d->st_l1_hits++;
            d->st_latency += lat_l1;
            latency = lat_l1;
        } else {
            latency = drv_demand_miss(d, block, issue_cycle, is_store,
                                      &served_by, &first_use);
        }
    }
    drv_complete(d, latency);

    if (kind == 0 && !d->cb_failed) {
        if (d->ptype == DRV_PF_PYTHON) {
            drv_py_train(d, pc, address, issue_cycle, latency, served_by,
                         first_use);
        } else {
            const long long *buf = NULL;
            int l1_hit = served_by == RES_L1 || served_by == RES_INFLIGHT;
            int cnt = drv_train(d, pc, address, issue_cycle, latency, l1_hit,
                                &buf);
            if (cnt > 0)
                drv_enqueue(d, buf, cnt);
        }
    }
    return gap + 1;
}

/* run(addresses, pcs, blocks, gaps, kinds, index, budget, replays)
 * -> (index, replays).  budget < 0 == unbounded (one full pass of the
 * trace).  One loop, the twin of _execute_batched: every access takes
 * drv_step in program order. */
static PyObject *
Driver_run(DriverKernel *d, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "run() takes exactly 8 arguments");
        return NULL;
    }
    Py_ssize_t index = PyLong_AsSsize_t(args[5]);
    long long budget = PyLong_AsLongLong(args[6]);
    long long replays = PyLong_AsLongLong(args[7]);
    if (PyErr_Occurred())
        return NULL;
    if (drv_load_trace(d, args[0], args[1], args[2], args[3], args[4]) < 0)
        return NULL;
    Py_ssize_t length = d->tr_len;
    if (length <= 0)
        return Py_BuildValue("(nL)", index, replays);
    if (index < 0 || index >= length) {
        PyErr_SetString(PyExc_ValueError, "trace index out of range");
        return NULL;
    }
    long long executed = 0;
    int unbounded = budget < 0;
    while (unbounded || executed < budget) {
        if (unbounded && replays > 0)
            break;
        Py_ssize_t i = index;
        index++;
        if (index >= length) {
            index = 0;
            replays++;
        }
        executed += drv_step(d, d->tr_addr[i], d->tr_pc[i], d->tr_block[i],
                             d->tr_gap[i], d->tr_kind[i]);
        if (d->cb_failed)
            break;
    }
    if (d->cb_failed) {
        /* A Python callback raised: its exception is already set. */
        d->cb_failed = 0;
        return NULL;
    }
    DRV_CHECK(d);
    return Py_BuildValue("(nL)", index, replays);
}

/* One core's round-robin cursor in run_mix. */
typedef struct {
    Py_ssize_t index;
    long long replays, executed, budget;
    int measuring;
} MixCore;

static PyTypeObject DriverKernelType;

/* run_mix(kernels, traces, cursors, start) -> (stop, cursors)
 *
 * MultiCoreSimulator._run_exact over kernels that share one LLC/DRAM
 * state: from core `start`, step one access per core in round-robin
 * order, replaying each trace on exhaust; a round starts only while
 * some core still measures.  traces[k] is core k's (addresses, pcs,
 * blocks, gaps, kinds) and cursors[k] its (index, replays, executed,
 * budget, measuring).  Returns as soon as a measuring core's executed
 * instructions reach its budget, with stop = that core, so Python can
 * close its measurement and resume from stop + 1; stop = -1 once no
 * core measures at a round start.  The returned cursors are
 * (index, replays, executed) per core. */
static PyObject *
drv_run_mix(PyObject *Py_UNUSED(module), PyObject *const *args,
            Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError, "run_mix() takes exactly 4 arguments");
        return NULL;
    }
    PyObject *kernels = args[0], *traces = args[1], *cursors = args[2];
    Py_ssize_t start = PyLong_AsSsize_t(args[3]);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    if (!PyTuple_Check(kernels) || !PyTuple_Check(traces)
        || !PyTuple_Check(cursors)) {
        PyErr_SetString(PyExc_TypeError,
                        "kernels, traces and cursors must be tuples");
        return NULL;
    }
    Py_ssize_t n = PyTuple_GET_SIZE(kernels);
    if (n < 1 || PyTuple_GET_SIZE(traces) != n
        || PyTuple_GET_SIZE(cursors) != n || start < 0 || start > n) {
        PyErr_SetString(PyExc_ValueError,
                        "run_mix needs one trace and cursor per kernel and "
                        "0 <= start <= cores");
        return NULL;
    }
    MixCore *mc = PyMem_Calloc((size_t)n, sizeof(MixCore));
    DriverKernel **ds = PyMem_Calloc((size_t)n, sizeof(DriverKernel *));
    if (mc == NULL || ds == NULL) {
        PyMem_Free(mc);
        PyMem_Free(ds);
        return PyErr_NoMemory();
    }
    PyObject *out = NULL;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *kernel = PyTuple_GET_ITEM(kernels, k);
        if (!PyObject_TypeCheck(kernel, &DriverKernelType)) {
            PyErr_SetString(PyExc_TypeError, "kernels must be DriverKernels");
            goto done;
        }
        DriverKernel *d = (DriverKernel *)kernel;
        if (d->sh == NULL || d->sh != ((DriverKernel *)
                                       PyTuple_GET_ITEM(kernels, 0))->sh) {
            PyErr_SetString(PyExc_ValueError,
                            "run_mix kernels must share one LLC/DRAM state");
            goto done;
        }
        PyObject *tr = PyTuple_GET_ITEM(traces, k);
        if (!PyTuple_Check(tr) || PyTuple_GET_SIZE(tr) != 5) {
            PyErr_SetString(PyExc_TypeError,
                            "each trace must be an (addresses, pcs, blocks, "
                            "gaps, kinds) tuple");
            goto done;
        }
        if (drv_load_trace(d, PyTuple_GET_ITEM(tr, 0), PyTuple_GET_ITEM(tr, 1),
                           PyTuple_GET_ITEM(tr, 2), PyTuple_GET_ITEM(tr, 3),
                           PyTuple_GET_ITEM(tr, 4)) < 0)
            goto done;
        MixCore *c = &mc[k];
        ds[k] = d;
        PyObject *cursor = PyTuple_GET_ITEM(cursors, k);
        if (!PyTuple_Check(cursor)) {
            PyErr_SetString(PyExc_TypeError,
                            "each cursor must be an (index, replays, "
                            "executed, budget, measuring) tuple");
            goto done;
        }
        if (!PyArg_ParseTuple(cursor, "nLLLp", &c->index, &c->replays,
                              &c->executed, &c->budget, &c->measuring))
            goto done;
        if (d->tr_len <= 0) {
            PyErr_SetString(PyExc_ValueError, "cannot simulate an empty trace");
            goto done;
        }
        if (c->index < 0 || c->index >= d->tr_len) {
            PyErr_SetString(PyExc_ValueError, "trace index out of range");
            goto done;
        }
    }

    Py_ssize_t stop = -1;
    for (Py_ssize_t k = start;; k++) {
        if (k >= n)
            k = 0;
        if (k == 0) {
            int measuring = 0;
            for (Py_ssize_t j = 0; j < n; j++)
                measuring |= mc[j].measuring;
            if (!measuring)
                break;
        }
        MixCore *c = &mc[k];
        DriverKernel *d = ds[k];
        Py_ssize_t i = c->index;
        if (++c->index >= d->tr_len) {
            c->index = 0;
            c->replays++;
        }
        c->executed += drv_step(d, d->tr_addr[i], d->tr_pc[i],
                                d->tr_block[i], d->tr_gap[i], d->tr_kind[i]);
        if (d->cb_failed) {
            /* A Python callback raised: its exception is already set. */
            d->cb_failed = 0;
            goto done;
        }
        if (c->measuring && c->executed >= c->budget) {
            stop = k;
            break;
        }
    }
#ifdef REPRO_DEBUG_KERNELS
    for (Py_ssize_t k = 0; k < n; k++)
        if (drv_check_core(ds[k]) < 0)
            goto done;
    if (drv_check_shared(ds, n) < 0)
        goto done;
#endif
    PyObject *state = PyTuple_New(n);
    if (state == NULL)
        goto done;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *it = Py_BuildValue("(nLL)", mc[k].index, mc[k].replays,
                                     mc[k].executed);
        if (it == NULL) {
            Py_DECREF(state);
            goto done;
        }
        PyTuple_SET_ITEM(state, k, it);
    }
    out = Py_BuildValue("(nN)", stop, state);
done:
    PyMem_Free(mc);
    PyMem_Free(ds);
    return out;
}

static void
drv_zero_stats(DriverKernel *d)
{
    d->st_demand = d->st_l1_hits = d->st_l1_misses = 0;
    d->st_l2_hits = d->st_l2_misses = d->st_llc_hits = d->st_llc_misses = 0;
    d->st_dram_reads = d->st_latency = 0;
    d->st_pf_generated = d->st_pf_issued = d->st_pf_drop_q = 0;
    d->st_pf_drop_mshr = d->st_pf_redundant = 0;
    d->st_pf_fill_l1 = d->st_pf_fill_l2 = 0;
    d->st_pf_useful_l1 = d->st_pf_useful_l2 = d->st_pf_useless = 0;
    d->st_pf_late = d->st_pf_covered = 0;
    d->st_pq_enq = d->st_pq_drop = 0;
    d->n1 = d->n2 = d->n3 = (DCount){0, 0, 0, 0};
    d->dr_requests = d->dr_demand = d->dr_prefetch = 0;
    d->dr_row_hits = d->dr_row_misses = d->dr_queue_wait = d->dr_service = 0;
}

static void
drv_free_buffers(DriverKernel *d)
{
    dc_free(&d->l1);
    dc_free(&d->l2);
    drv_shared_release(d->sh);
    d->sh = NULL;
    PyMem_Free(d->mshr_block);
    PyMem_Free(d->mshr_ready);
    PyMem_Free(d->mshr_dram);
    PyMem_Free(d->pq);
    PyMem_Free(d->out_pos);
    PyMem_Free(d->out_comp);
    PyMem_Free(d->missv);
    PyMem_Free(d->tr_addr);
    PyMem_Free(d->tr_pc);
    PyMem_Free(d->tr_block);
    PyMem_Free(d->tr_gap);
    PyMem_Free(d->tr_kind);
    d->mshr_block = d->mshr_ready = NULL;
    d->mshr_dram = NULL;
    d->pq = NULL;
    d->out_pos = NULL;
    d->out_comp = NULL;
    d->missv = NULL;
    d->tr_addr = d->tr_pc = d->tr_block = d->tr_gap = NULL;
    d->tr_kind = NULL;
    d->tr_cap = 0;
    d->tr_len = -1;
}

static void
drv_clear_refs(DriverKernel *d)
{
    Py_CLEAR(d->pf_kernel);
    Py_CLEAR(d->py_evict);
    for (int i = 0; i < RES_COUNT; i++)
        Py_CLEAR(d->py_results[i]);
    Py_CLEAR(d->tr_key_addr);
    Py_CLEAR(d->tr_key_block);
}

static void
Driver_dealloc(DriverKernel *d)
{
    drv_free_buffers(d);
    drv_clear_refs(d);
    Py_TYPE(d)->tp_free((PyObject *)d);
}

static int
drv_pow2(int v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

static int
Driver_init(DriverKernel *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "l1_sets", "l1_ways", "l2_sets", "l2_ways", "llc_sets", "llc_ways",
        "lat_l1", "lat_l2", "lat_llc", "lat_l2_source", "lat_llc_source",
        "mshr_capacity", "pq_capacity", "pq_drain",
        "dram_channels", "dram_banks", "dram_row_div", "dram_row_hit",
        "dram_row_miss", "dram_transfer",
        "width", "fetch_increment", "rob", "lq", "miss_limit",
        "miss_threshold", "ptype", "kernel", "evict", "results", "shared",
        NULL,
    };
    int l1_sets, l1_ways, l2_sets, l2_ways, llc_sets, llc_ways;
    long long lat_l1, lat_l2, lat_llc, lat_l2_source, lat_llc_source;
    int mshr_capacity, pq_capacity, pq_drain;
    int dram_channels, dram_banks;
    long long dram_row_div, dram_row_hit, dram_row_miss;
    double dram_transfer;
    int width;
    double fetch_increment;
    long long rob, lq;
    int miss_limit;
    long long miss_threshold;
    int ptype;
    PyObject *kernel, *evict, *results, *shared = Py_None;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "iiiiiiLLLLLiiiiiLLLdidLLiLiOOO|O", kwlist,
            &l1_sets, &l1_ways, &l2_sets, &l2_ways, &llc_sets, &llc_ways,
            &lat_l1, &lat_l2, &lat_llc, &lat_l2_source, &lat_llc_source,
            &mshr_capacity, &pq_capacity, &pq_drain,
            &dram_channels, &dram_banks, &dram_row_div, &dram_row_hit,
            &dram_row_miss, &dram_transfer,
            &width, &fetch_increment, &rob, &lq, &miss_limit,
            &miss_threshold, &ptype, &kernel, &evict, &results, &shared))
        return -1;
    if (!drv_pow2(l1_sets) || !drv_pow2(l2_sets) || !drv_pow2(llc_sets)
        || l1_ways < 1 || l2_ways < 1 || llc_ways < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "cache geometry must be power-of-two sets, ways>=1");
        return -1;
    }
    if (mshr_capacity < 1 || pq_capacity < 1 || pq_drain < 0
        || dram_channels < 1 || dram_banks < 1 || dram_row_div < 1
        || width < 1 || rob < 1 || lq < 1 || lq > (1 << 20)
        || miss_limit < 1) {
        PyErr_SetString(PyExc_ValueError, "invalid driver parameters");
        return -1;
    }
    PyTypeObject *want = NULL;
    switch (ptype) {
    case DRV_PF_NONE:
        break;
    case DRV_PF_BERTI:
        want = &BertiKernelType;
        break;
    case DRV_PF_GAZE:
        want = &GazeKernelType;
        break;
    case DRV_PF_PMP:
        want = &PMPKernelType;
        break;
    case DRV_PF_TRIANGEL:
        want = &TriangelKernelType;
        break;
    case DRV_PF_PYTHON:
        break;
    default:
        PyErr_SetString(PyExc_ValueError, "unknown ptype");
        return -1;
    }
    if (ptype == DRV_PF_PYTHON) {
        if (!PyCallable_Check(kernel)
            || (evict != Py_None && !PyCallable_Check(evict))) {
            PyErr_SetString(PyExc_TypeError,
                            "ptype 5 takes a callable kernel (train) and "
                            "evict=None or a callable");
            return -1;
        }
        if (!PyTuple_Check(results) || PyTuple_GET_SIZE(results) != RES_COUNT) {
            PyErr_SetString(PyExc_TypeError,
                            "results must be a 5-tuple of AccessResult");
            return -1;
        }
    } else if (evict != Py_None || results != Py_None) {
        PyErr_SetString(PyExc_TypeError,
                        "evict and results are for ptype 5 only");
        return -1;
    } else if (want == NULL) {
        if (kernel != Py_None) {
            PyErr_SetString(PyExc_TypeError, "ptype 0 takes kernel=None");
            return -1;
        }
    } else if (!PyObject_TypeCheck(kernel, want)) {
        PyErr_Format(PyExc_TypeError, "kernel must be a %s instance",
                     want->tp_name);
        return -1;
    }
    DrvShared *borrow = NULL;
    if (shared != Py_None) {
        if (!PyObject_TypeCheck(shared, &DriverKernelType)
            || ((DriverKernel *)shared)->sh == NULL) {
            PyErr_SetString(PyExc_TypeError,
                            "shared must be an initialised DriverKernel");
            return -1;
        }
        borrow = ((DriverKernel *)shared)->sh;
        if (borrow->llc.sets != llc_sets || borrow->llc.ways != llc_ways
            || borrow->dr_channels != dram_channels
            || borrow->dr_banks != dram_banks
            || borrow->dr_row_div != dram_row_div
            || borrow->dr_lat_row_hit != dram_row_hit
            || borrow->dr_lat_row_miss != dram_row_miss
            || borrow->dr_transfer != dram_transfer) {
            PyErr_SetString(PyExc_ValueError,
                            "shared kernel has a different LLC/DRAM geometry");
            return -1;
        }
        borrow->refs++; /* before the release below: shared may be self */
    }

    drv_free_buffers(self);
    drv_clear_refs(self);

    if (borrow != NULL) {
        self->sh = borrow;
    } else {
        self->sh = drv_shared_new(llc_sets, llc_ways, dram_channels,
                                  dram_banks, dram_row_div, dram_row_hit,
                                  dram_row_miss, dram_transfer);
        if (self->sh == NULL)
            goto nomem;
    }
    if (dc_init(&self->l1, l1_sets, l1_ways) < 0
        || dc_init(&self->l2, l2_sets, l2_ways) < 0)
        goto nomem;
    self->lat_l1 = lat_l1;
    self->lat_l2 = lat_l2;
    self->lat_llc = lat_llc;
    self->lat_l2_source = lat_l2_source;
    self->lat_llc_source = lat_llc_source;

    self->mshr_cap = mshr_capacity;
    self->mshr_n = 0;
    self->mshr_min_ready = LLONG_MAX;
    self->mshr_block =
        PyMem_Malloc(sizeof(long long) * (size_t)mshr_capacity);
    self->mshr_ready =
        PyMem_Malloc(sizeof(long long) * (size_t)mshr_capacity);
    self->mshr_dram = PyMem_Malloc((size_t)mshr_capacity);
    if (!self->mshr_block || !self->mshr_ready || !self->mshr_dram)
        goto nomem;

    self->pq_cap = pq_capacity;
    self->pq_head = self->pq_n = 0;
    self->pq_drain = pq_drain;
    self->pq = PyMem_Malloc(sizeof(long long) * (size_t)pq_capacity);
    if (!self->pq)
        goto nomem;

    self->width = width;
    self->fetch_inc = fetch_increment;
    self->rob = rob;
    self->lq = lq;
    self->miss_limit = miss_limit;
    self->miss_threshold = miss_threshold;
    self->instr = 0;
    self->fetch = self->last_retire = self->issue = 0.0;
    self->out_cap = (int)lq + 2;
    self->out_head = self->out_n = 0;
    self->out_pos = PyMem_Malloc(sizeof(long long) * (size_t)self->out_cap);
    self->out_comp = PyMem_Malloc(sizeof(double) * (size_t)self->out_cap);
    self->miss_cap = miss_limit + 2;
    self->miss_n = 0;
    self->misses_min = INFINITY;
    self->missv = PyMem_Malloc(sizeof(double) * (size_t)self->miss_cap);
    if (!self->out_pos || !self->out_comp || !self->missv)
        goto nomem;

    self->ptype = ptype;
    self->cb_failed = 0;
    if (want != NULL || ptype == DRV_PF_PYTHON) {
        Py_INCREF(kernel);
        self->pf_kernel = kernel;
    }
    if (ptype == DRV_PF_PYTHON) {
        if (evict != Py_None) {
            Py_INCREF(evict);
            self->py_evict = evict;
        }
        for (int i = 0; i < RES_COUNT; i++) {
            self->py_results[i] = PyTuple_GET_ITEM(results, i);
            Py_INCREF(self->py_results[i]);
        }
    }
    drv_zero_stats(self);
    return 0;

nomem:
    drv_free_buffers(self);
    if (!PyErr_Occurred())
        PyErr_NoMemory();
    return -1;
}

static DCache *
drv_level(DriverKernel *d, int level)
{
    switch (level) {
    case 1:
        return &d->l1;
    case 2:
        return &d->l2;
    case 3:
        return &d->sh->llc;
    }
    PyErr_SetString(PyExc_ValueError, "level must be 1, 2 or 3");
    return NULL;
}

/* load_cache(level, [(block, flags), ...]) — entries in per-set
 * LRU -> MRU order (any interleaving across sets). */
static PyObject *
Driver_load_cache(DriverKernel *d, PyObject *args)
{
    int level;
    PyObject *items;
    if (!PyArg_ParseTuple(args, "iO", &level, &items))
        return NULL;
    DCache *c = drv_level(d, level);
    if (!c)
        return NULL;
    PyObject *seq = PySequence_Fast(items, "items must be a sequence");
    if (!seq)
        return NULL;
    memset(c->size, 0, sizeof(int) * (size_t)c->sets);
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *it = PySequence_Fast_GET_ITEM(seq, i);
        if (!PyTuple_Check(it) || PyTuple_GET_SIZE(it) != 2) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_TypeError,
                            "items must be (block, flags) tuples");
            return NULL;
        }
        long long block = PyLong_AsLongLong(PyTuple_GET_ITEM(it, 0));
        long long flags = PyLong_AsLongLong(PyTuple_GET_ITEM(it, 1));
        if (PyErr_Occurred()) {
            Py_DECREF(seq);
            return NULL;
        }
        DCRow r = dc_row(c, block);
        if (r.n >= c->ways) {
            Py_DECREF(seq);
            PyErr_SetString(PyExc_ValueError, "cache set overflow");
            return NULL;
        }
        r.tag[r.n] = block;
        r.flg[r.n] = (unsigned char)flags;
        c->size[r.set] = r.n + 1;
    }
    Py_DECREF(seq);
    DRV_CHECK(d);
    Py_RETURN_NONE;
}

static PyObject *
Driver_export_cache(DriverKernel *d, PyObject *args)
{
    int level;
    if (!PyArg_ParseTuple(args, "i", &level))
        return NULL;
    DCache *c = drv_level(d, level);
    if (!c)
        return NULL;
    PyObject *out = PyList_New(0);
    if (!out)
        return NULL;
    for (int s = 0; s < c->sets; s++) {
        const long long *tag = c->tag + (size_t)s * (size_t)c->ways;
        const unsigned char *flg = c->flag + (size_t)s * (size_t)c->ways;
        for (int i = 0; i < c->size[s]; i++) {
            PyObject *it = Py_BuildValue("(Li)", tag[i], (int)flg[i]);
            if (!it || PyList_Append(out, it) < 0) {
                Py_XDECREF(it);
                Py_DECREF(out);
                return NULL;
            }
            Py_DECREF(it);
        }
    }
    return out;
}

/* load_core(instr, fetch, last_retire, issue, [(pos, comp), ...],
 *           [miss_completion, ...]) */
static PyObject *
Driver_load_core(DriverKernel *d, PyObject *args)
{
    long long instr;
    double fetch, last_retire, issue;
    PyObject *out_list, *miss_list;
    if (!PyArg_ParseTuple(args, "LdddOO", &instr, &fetch, &last_retire,
                          &issue, &out_list, &miss_list))
        return NULL;
    PyObject *oseq = PySequence_Fast(out_list, "outstanding must be a sequence");
    if (!oseq)
        return NULL;
    PyObject *mseq = PySequence_Fast(miss_list, "misses must be a sequence");
    if (!mseq) {
        Py_DECREF(oseq);
        return NULL;
    }
    Py_ssize_t on = PySequence_Fast_GET_SIZE(oseq);
    Py_ssize_t mn = PySequence_Fast_GET_SIZE(mseq);
    if (on > d->out_cap || mn > d->miss_cap) {
        Py_DECREF(oseq);
        Py_DECREF(mseq);
        PyErr_SetString(PyExc_ValueError, "core state exceeds capacity");
        return NULL;
    }
    d->instr = instr;
    d->fetch = fetch;
    d->last_retire = last_retire;
    d->issue = issue;
    d->out_head = 0;
    d->out_n = 0;
    for (Py_ssize_t i = 0; i < on; i++) {
        PyObject *it = PySequence_Fast_GET_ITEM(oseq, i);
        PyObject *fast = PySequence_Fast(it, "outstanding entries must be pairs");
        if (!fast || PySequence_Fast_GET_SIZE(fast) != 2) {
            Py_XDECREF(fast);
            Py_DECREF(oseq);
            Py_DECREF(mseq);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError,
                                "outstanding entries must be pairs");
            return NULL;
        }
        long long pos =
            PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, 0));
        double comp = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(fast, 1));
        Py_DECREF(fast);
        if (PyErr_Occurred()) {
            Py_DECREF(oseq);
            Py_DECREF(mseq);
            return NULL;
        }
        d->out_pos[i] = pos;
        d->out_comp[i] = comp;
        d->out_n++;
    }
    d->miss_n = 0;
    d->misses_min = INFINITY;
    for (Py_ssize_t i = 0; i < mn; i++) {
        double m = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(mseq, i));
        if (PyErr_Occurred()) {
            Py_DECREF(oseq);
            Py_DECREF(mseq);
            return NULL;
        }
        d->missv[d->miss_n++] = m;
        if (m < d->misses_min)
            d->misses_min = m;
    }
    Py_DECREF(oseq);
    Py_DECREF(mseq);
    DRV_CHECK(d);
    Py_RETURN_NONE;
}

static PyObject *
Driver_export_core(DriverKernel *d, PyObject *Py_UNUSED(ignored))
{
    PyObject *outl = PyList_New(d->out_n);
    if (!outl)
        return NULL;
    for (int i = 0; i < d->out_n; i++) {
        int idx = d->out_head + i;
        if (idx >= d->out_cap)
            idx -= d->out_cap;
        PyObject *it =
            Py_BuildValue("(Ld)", d->out_pos[idx], d->out_comp[idx]);
        if (!it) {
            Py_DECREF(outl);
            return NULL;
        }
        PyList_SET_ITEM(outl, i, it);
    }
    PyObject *ml = PyList_New(d->miss_n);
    if (!ml) {
        Py_DECREF(outl);
        return NULL;
    }
    for (int i = 0; i < d->miss_n; i++) {
        PyObject *v = PyFloat_FromDouble(d->missv[i]);
        if (!v) {
            Py_DECREF(outl);
            Py_DECREF(ml);
            return NULL;
        }
        PyList_SET_ITEM(ml, i, v);
    }
    return Py_BuildValue("(LdddNN)", d->instr, d->fetch, d->last_retire,
                         d->issue, outl, ml);
}

/* load_dram([(bank, row), ...], [(bank, busy), ...], [channel_busy...]) */
static PyObject *
Driver_load_dram(DriverKernel *d, PyObject *args)
{
    PyObject *open_list, *busy_list, *channel_list;
    if (!PyArg_ParseTuple(args, "OOO", &open_list, &busy_list,
                          &channel_list))
        return NULL;
    DrvShared *s = d->sh;
    long long total_banks = (long long)s->dr_channels * s->dr_banks;
    for (long long b = 0; b < total_banks; b++) {
        s->dr_open_row[b] = -1;
        s->dr_bank_busy[b] = 0.0;
    }
    PyObject *oseq = PySequence_Fast(open_list, "open rows must be a sequence");
    if (!oseq)
        return NULL;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(oseq); i++) {
        PyObject *it = PySequence_Fast_GET_ITEM(oseq, i);
        long long bank = PyLong_AsLongLong(PyTuple_GetItem(it, 0));
        long long row = PyLong_AsLongLong(PyTuple_GetItem(it, 1));
        if (PyErr_Occurred() || bank < 0 || bank >= total_banks) {
            Py_DECREF(oseq);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "bank out of range");
            return NULL;
        }
        s->dr_open_row[bank] = row;
    }
    Py_DECREF(oseq);
    PyObject *bseq = PySequence_Fast(busy_list, "bank busy must be a sequence");
    if (!bseq)
        return NULL;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(bseq); i++) {
        PyObject *it = PySequence_Fast_GET_ITEM(bseq, i);
        long long bank = PyLong_AsLongLong(PyTuple_GetItem(it, 0));
        double busy = PyFloat_AsDouble(PyTuple_GetItem(it, 1));
        if (PyErr_Occurred() || bank < 0 || bank >= total_banks) {
            Py_DECREF(bseq);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_ValueError, "bank out of range");
            return NULL;
        }
        s->dr_bank_busy[bank] = busy;
    }
    Py_DECREF(bseq);
    PyObject *cseq =
        PySequence_Fast(channel_list, "channel busy must be a sequence");
    if (!cseq)
        return NULL;
    if (PySequence_Fast_GET_SIZE(cseq) != s->dr_channels) {
        Py_DECREF(cseq);
        PyErr_SetString(PyExc_ValueError, "channel busy length mismatch");
        return NULL;
    }
    for (Py_ssize_t i = 0; i < s->dr_channels; i++) {
        double busy = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(cseq, i));
        if (PyErr_Occurred()) {
            Py_DECREF(cseq);
            return NULL;
        }
        s->dr_channel_busy[i] = busy;
    }
    Py_DECREF(cseq);
    DRV_CHECK(d);
    Py_RETURN_NONE;
}

static PyObject *
Driver_export_dram(DriverKernel *d, PyObject *Py_UNUSED(ignored))
{
    DrvShared *s = d->sh;
    long long total_banks = (long long)s->dr_channels * s->dr_banks;
    PyObject *open_list = PyList_New(0);
    PyObject *busy_list = PyList_New(0);
    PyObject *chan_list = PyList_New(s->dr_channels);
    if (!open_list || !busy_list || !chan_list)
        goto fail;
    for (long long b = 0; b < total_banks; b++) {
        if (s->dr_open_row[b] != -1) {
            PyObject *it = Py_BuildValue("(LL)", b, s->dr_open_row[b]);
            if (!it || PyList_Append(open_list, it) < 0) {
                Py_XDECREF(it);
                goto fail;
            }
            Py_DECREF(it);
        }
        if (s->dr_bank_busy[b] != 0.0) {
            PyObject *it = Py_BuildValue("(Ld)", b, s->dr_bank_busy[b]);
            if (!it || PyList_Append(busy_list, it) < 0) {
                Py_XDECREF(it);
                goto fail;
            }
            Py_DECREF(it);
        }
    }
    for (int c = 0; c < s->dr_channels; c++) {
        PyObject *v = PyFloat_FromDouble(s->dr_channel_busy[c]);
        if (!v)
            goto fail;
        PyList_SET_ITEM(chan_list, c, v);
    }
    return Py_BuildValue("(NNN)", open_list, busy_list, chan_list);
fail:
    Py_XDECREF(open_list);
    Py_XDECREF(busy_list);
    Py_XDECREF(chan_list);
    return NULL;
}

static PyObject *
Driver_export_mshr(DriverKernel *d, PyObject *Py_UNUSED(ignored))
{
    DRV_CHECK(d);
    PyObject *lst = PyList_New(d->mshr_n);
    if (!lst)
        return NULL;
    for (int i = 0; i < d->mshr_n; i++) {
        PyObject *it = Py_BuildValue("(LLi)", d->mshr_block[i],
                                     d->mshr_ready[i], (int)d->mshr_dram[i]);
        if (!it) {
            Py_DECREF(lst);
            return NULL;
        }
        PyList_SET_ITEM(lst, i, it);
    }
    PyObject *mn;
    if (d->mshr_min_ready == LLONG_MAX) {
        mn = Py_None;
        Py_INCREF(mn);
    } else {
        mn = PyLong_FromLongLong(d->mshr_min_ready);
        if (!mn) {
            Py_DECREF(lst);
            return NULL;
        }
    }
    return Py_BuildValue("(NN)", lst, mn);
}

/* flush(cycle): CacheHierarchy.flush_prefetches — issue every queued
 * prefetch at `cycle`, then complete every MSHR fill due by
 * cycle + 10**9 into the L1 (eviction callbacks included). */
static PyObject *
Driver_flush(DriverKernel *d, PyObject *arg)
{
    long long cycle = PyLong_AsLongLong(arg);
    if (cycle == -1 && PyErr_Occurred())
        return NULL;
    while (d->pq_n) {
        long long p = d->pq[d->pq_head];
        d->pq_head++;
        if (d->pq_head >= d->pq_cap)
            d->pq_head = 0;
        d->pq_n--;
        drv_issue_prefetch(d, p, cycle);
    }
    long long done = cycle + 1000000000LL;
    if (d->mshr_n && done >= d->mshr_min_ready)
        drv_mshr_complete(d, done);
    if (d->cb_failed) {
        d->cb_failed = 0;
        return NULL;
    }
    DRV_CHECK(d);
    Py_RETURN_NONE;
}

static PyObject *
Driver_drain_stats(DriverKernel *d, PyObject *Py_UNUSED(ignored))
{
    DRV_CHECK(d);
    long long vals[42] = {
        d->st_demand, d->st_l1_hits, d->st_l1_misses, d->st_l2_hits,
        d->st_l2_misses, d->st_llc_hits, d->st_llc_misses, d->st_dram_reads,
        d->st_latency,
        d->st_pf_generated, d->st_pf_issued, d->st_pf_drop_q,
        d->st_pf_drop_mshr, d->st_pf_redundant, d->st_pf_fill_l1,
        d->st_pf_fill_l2, d->st_pf_useful_l1, d->st_pf_useful_l2,
        d->st_pf_useless, d->st_pf_late, d->st_pf_covered,
        d->st_pq_enq, d->st_pq_drop,
        d->n1.hits, d->n1.misses, d->n1.evictions, d->n1.useless,
        d->n2.hits, d->n2.misses, d->n2.evictions, d->n2.useless,
        d->n3.hits, d->n3.misses, d->n3.evictions, d->n3.useless,
        d->dr_requests, d->dr_demand, d->dr_prefetch, d->dr_row_hits,
        d->dr_row_misses, d->dr_queue_wait, d->dr_service,
    };
    PyObject *t = PyTuple_New(42);
    if (!t)
        return NULL;
    for (int i = 0; i < 42; i++) {
        PyObject *v = PyLong_FromLongLong(vals[i]);
        if (!v) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    drv_zero_stats(d);
    return t;
}

static PyMethodDef Driver_methods[] = {
    {"run", (PyCFunction)(void (*)(void))Driver_run, METH_FASTCALL,
     "run(addresses, pcs, blocks, gaps, kinds, index, budget, replays)\n"
     "-> (index, replays); budget < 0 = one pass."},
    {"load_cache", (PyCFunction)Driver_load_cache, METH_VARARGS,
     "load_cache(level, [(block, flags), ...]) in per-set LRU->MRU order."},
    {"export_cache", (PyCFunction)Driver_export_cache, METH_VARARGS,
     "export_cache(level) -> [(block, flags), ...] per-set LRU->MRU."},
    {"load_core", (PyCFunction)Driver_load_core, METH_VARARGS,
     "load_core(instr, fetch, last_retire, issue, outstanding, misses)."},
    {"export_core", (PyCFunction)Driver_export_core, METH_NOARGS,
     "-> (instr, fetch, last_retire, issue, outstanding, misses)."},
    {"load_dram", (PyCFunction)Driver_load_dram, METH_VARARGS,
     "load_dram(open_rows, bank_busy, channel_busy)."},
    {"export_dram", (PyCFunction)Driver_export_dram, METH_NOARGS,
     "-> (open_rows, bank_busy, channel_busy) with defaults omitted."},
    {"export_mshr", (PyCFunction)Driver_export_mshr, METH_NOARGS,
     "-> ([(block, ready, from_dram), ...], min_ready | None)."},
    {"flush", (PyCFunction)Driver_flush, METH_O,
     "flush(cycle): issue every queued prefetch, complete every fill."},
    {"drain_stats", (PyCFunction)Driver_drain_stats, METH_NOARGS,
     "-> 42-tuple of stat deltas since the last drain; zeroes them."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject DriverKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._kernels.DriverKernel",
    .tp_basicsize = sizeof(DriverKernel),
    .tp_dealloc = (destructor)Driver_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "C port of the batched simulation driver loop.",
    .tp_methods = Driver_methods,
    .tp_init = (initproc)Driver_init,
    .tp_new = PyType_GenericNew,
};

/* ================================================================== */
static PyMethodDef kernels_methods[] = {
    {"run_mix", (PyCFunction)(void (*)(void))drv_run_mix, METH_FASTCALL,
     "run_mix(kernels, traces, cursors, start) -> (stop, cursors): the\n"
     "round-robin N-core loop over DriverKernels sharing one LLC/DRAM."},
    {NULL, NULL, 0, NULL},
};

static PyModuleDef kernels_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._kernels",
    .m_doc = "Compiled twins of the prefetcher train loops and the driver loop.",
    .m_size = -1,
    .m_methods = kernels_methods,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    PyObject *m;
    if (PyType_Ready(&BertiKernelType) < 0 ||
        PyType_Ready(&GazeKernelType) < 0 ||
        PyType_Ready(&PMPKernelType) < 0 ||
        PyType_Ready(&TriangelKernelType) < 0 ||
        PyType_Ready(&DriverKernelType) < 0)
        return NULL;
    str_latency = PyUnicode_InternFromString("latency");
    str_served = PyUnicode_InternFromString("served_by_prefetch");
    str_late = PyUnicode_InternFromString("late_prefetch");
    if (!str_latency || !str_served || !str_late)
        return NULL;
    m = PyModule_Create(&kernels_module);
    if (!m)
        return NULL;
    Py_INCREF(&BertiKernelType);
    if (PyModule_AddObject(m, "BertiKernel",
                           (PyObject *)&BertiKernelType) < 0) {
        Py_DECREF(&BertiKernelType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&GazeKernelType);
    if (PyModule_AddObject(m, "GazeKernel", (PyObject *)&GazeKernelType) < 0) {
        Py_DECREF(&GazeKernelType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&PMPKernelType);
    if (PyModule_AddObject(m, "PMPKernel", (PyObject *)&PMPKernelType) < 0) {
        Py_DECREF(&PMPKernelType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&TriangelKernelType);
    if (PyModule_AddObject(m, "TriangelKernel",
                           (PyObject *)&TriangelKernelType) < 0) {
        Py_DECREF(&TriangelKernelType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&DriverKernelType);
    if (PyModule_AddObject(m, "DriverKernel",
                           (PyObject *)&DriverKernelType) < 0) {
        Py_DECREF(&DriverKernelType);
        Py_DECREF(m);
        return NULL;
    }
    if (PyModule_AddIntConstant(m, "KERNELS_ABI", 7) < 0) {
        Py_DECREF(m);
        return NULL;
    }
#ifdef REPRO_DEBUG_KERNELS
    if (PyModule_AddIntConstant(m, "DEBUG_KERNELS", 1) < 0) {
#else
    if (PyModule_AddIntConstant(m, "DEBUG_KERNELS", 0) < 0) {
#endif
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
