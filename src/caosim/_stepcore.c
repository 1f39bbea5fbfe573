/* Step kernel: int64 while it holds, exact ints past it; and the lock-step
   check of the other route, in int64.

   The file has four sections, each headed by a line of its own: the trace
   records, the matrix route's PlanKernel, the operational route's Enactor,
   and the module.  The two routes' sections share no code: neither names a
   function, type or static of the other (tests/test_kernel.py checks it),
   so a slip in one shows as a divergence in the other.  Both use the first
   section, which says how a record numbers its cells.  They live in one
   file because the package builds one extension from it, and so does the
   benchmark.

   A run is recorded a stretch of updates at a time, as caosim.model's
   Stretch: the rows of the stretch's first update in full (its state,
   partial carries and common carries), then for each later update only
   the cells whose value differs from the update before.  The PlanKernel
   writes the rows and the changes, simulate.run keeps them as the trace,
   and the Enactor reads those very changes to check them.

   A PlanKernel freezes one update plan -- per-entity radices, carry groups
   and conversion edges, all given by entity index -- into C arrays at
   construction, with each entity's outgoing edges and its one carry group.
   Construction raises ValueError for a plan whose indices fall outside the
   state, whose radices are negative or which puts an entity in two carry
   groups, and OverflowError for one whose radices or coefficients do not
   fit in int64.

   Its one method, run(state, limit), takes up to `limit` updates in a row
   without returning to Python in between, and records them.  While int64
   holds the state and every credit, the state stays in int64 from one
   update to the next, and only the cells an update changes become ints.
   Every multiplication and addition that could leave int64 is checked,
   and so is every state about to be stepped: a component that is
   negative, not an int, or outside int64 ends the int64 loop too, as a
   plan with negative coefficients may need.

   There a big-integer stretch starts.  It updates the components and
   carries as Python objects with PyNumber_* calls, which stay exact, the
   frontier way, as kernel._frontier steps the pure backend: only the
   entities the last update changed get their carries computed again, and
   only the carry groups whose members' partial carries changed are folded
   again.  Once every component is an int in [0, INT64_MAX] again, the
   stretch goes back to the int64 loop.  So run() stops only at a fixed
   point or at the limit.  Both loops write one record: the last update's
   rows as objects, which either loop reads where the other stopped, and
   the changes of the update being taken.  Each call works in rows of its
   own: a PyNumber_* call on an int subclass, or any allocation, may run
   Python code that calls run() again.

   Every tuple of exact ints the kernel makes is born untracked by the
   cyclic garbage collector, a change tuple or a row: a tuple of exact
   ints can never be part of a cycle.  CPython untracks such a tuple
   itself, but only at the first collection that walks it.

   An Enactor(operators, state) enacts operational.resolve(spec)'s
   operators literally in int64 and checks the matrix route's records
   against its own updates; its section says how. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

_Static_assert(sizeof(long long) == sizeof(int64_t), "long long must be 64 bits");

/* ======== Trace records ======== */

/* The rows of a record.  Cell row * m + i is entity i's component of that
   row: its state, its partial carry or its common carry.  A change is a
   (cell, value) pair, and the changes of one update are one tuple of such
   pairs laid end to end.  The matrix route writes cells, and the
   operational route reads them. */
typedef enum {
    ROW_STATE,
    ROW_PARTIALS,
    ROW_COMMON,
    ROWS
} Row;

/* ======== The matrix route: PlanKernel ======== */

typedef struct {
    PyObject_HEAD
    Py_ssize_t m, ngroups, nedges;
    int64_t *n;                     /* m radices, 0 where an entity feeds nothing */
    int64_t *grp_off;               /* ngroups + 1 offsets into grp_members */
    int64_t *grp_members;
    int64_t *src, *dst, *coeff;     /* one entry per edge */
    int64_t *group_of;              /* m: an entity's carry group, or -1 */
    int64_t *first_out, *next_out;  /* m, nedges: each source's edges in plan
                                       order, as a list ending in -1 */
    int64_t *block;                 /* owns every row above */
    PyObject *py;                   /* a tuple of the m radices, the
                                       coefficients and the record's cell
                                       numbers, as ints, made on the first
                                       run */
} PlanKernel;

/* Read one plan integer: OverflowError when it does not fit in int64,
   ValueError unless lo <= value <= hi. */
static int
plan_int(PyObject *obj, int64_t lo, int64_t hi, int64_t *out)
{
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred())
        return -1;
    if (v < lo || v > hi) {
        PyErr_Format(PyExc_ValueError, "plan value %R outside [%lld, %lld]",
                     obj, (long long)lo, (long long)hi);
        return -1;
    }
    *out = v;
    return 0;
}

/* Index the entities by carry group and the edges by source; -1 with
   ValueError when an entity is in two groups. */
static int
index_plan(PlanKernel *self)
{
    for (Py_ssize_t i = 0; i < self->m; i++)
        self->group_of[i] = self->first_out[i] = -1;
    for (Py_ssize_t g = 0; g < self->ngroups; g++)
        for (int64_t j = self->grp_off[g]; j < self->grp_off[g + 1]; j++) {
            int64_t x = self->grp_members[j];
            if (self->group_of[x] >= 0) {
                PyErr_Format(PyExc_ValueError, "entity %lld is in two carry groups",
                             (long long)x);
                return -1;
            }
            self->group_of[x] = g;
        }
    for (Py_ssize_t e = self->nedges - 1; e >= 0; e--) {
        self->next_out[e] = self->first_out[self->src[e]];
        self->first_out[self->src[e]] = e;
    }
    return 0;
}

/* Fill the C arrays from (n, groups, edges); -1 with an exception set.
   Every sequence is copied into a tuple before it is read, because
   converting an item may run Python code that could resize a list. */
static int
load_plan(PlanKernel *self, PyObject *n_obj, PyObject *groups_obj,
          PyObject *edges_obj)
{
    int rc = -1;
    PyObject *n = NULL, *outer = NULL, *groups = NULL, *edges = NULL, *item = NULL;
    Py_ssize_t i, j, g, m, total = 0;

    if (!(n = PySequence_Tuple(n_obj)) || !(outer = PySequence_Tuple(groups_obj))
        || !(edges = PySequence_Tuple(edges_obj))
        || !(groups = PyTuple_New(PyTuple_GET_SIZE(outer))))
        goto done;
    m = self->m = PyTuple_GET_SIZE(n);
    self->ngroups = PyTuple_GET_SIZE(groups);
    self->nedges = PyTuple_GET_SIZE(edges);
    for (g = 0; g < self->ngroups; g++) {
        if (!(item = PySequence_Tuple(PyTuple_GET_ITEM(outer, g))))
            goto done;
        total += PyTuple_GET_SIZE(item);
        PyTuple_SET_ITEM(groups, g, item);
        item = NULL;
    }

    self->block = PyMem_Calloc(3 * m + self->ngroups + 1 + total + 4 * self->nedges,
                               sizeof(int64_t));
    if (!self->block) {
        PyErr_NoMemory();
        goto done;
    }
    self->n = self->block;
    self->grp_off = self->n + m;
    self->grp_members = self->grp_off + self->ngroups + 1;
    self->src = self->grp_members + total;
    self->dst = self->src + self->nedges;
    self->coeff = self->dst + self->nedges;
    self->group_of = self->coeff + self->nedges;
    self->first_out = self->group_of + m;
    self->next_out = self->first_out + m;

    for (i = 0; i < m; i++)
        if (plan_int(PyTuple_GET_ITEM(n, i), 0, INT64_MAX, &self->n[i]) < 0)
            goto done;
    for (g = 0, j = 0; g < self->ngroups; g++) {
        PyObject *members = PyTuple_GET_ITEM(groups, g);
        for (i = 0; i < PyTuple_GET_SIZE(members); i++, j++)
            if (plan_int(PyTuple_GET_ITEM(members, i), 0, m - 1, &self->grp_members[j]) < 0)
                goto done;
        self->grp_off[g + 1] = j;
    }
    for (i = 0; i < self->nedges; i++) {
        if (!(item = PySequence_Tuple(PyTuple_GET_ITEM(edges, i))))
            goto done;
        if (PyTuple_GET_SIZE(item) != 3) {
            PyErr_SetString(PyExc_ValueError, "each edge must be (src, dst, coeff)");
            goto done;
        }
        if (plan_int(PyTuple_GET_ITEM(item, 0), 0, m - 1, &self->src[i]) < 0
            || plan_int(PyTuple_GET_ITEM(item, 1), 0, m - 1, &self->dst[i]) < 0
            || plan_int(PyTuple_GET_ITEM(item, 2), INT64_MIN, INT64_MAX, &self->coeff[i]) < 0)
            goto done;
        Py_CLEAR(item);
    }
    rc = index_plan(self);
done:
    Py_XDECREF(item);
    Py_XDECREF(edges);
    Py_XDECREF(groups);
    Py_XDECREF(outer);
    Py_XDECREF(n);
    return rc;
}

static PyObject *
PlanKernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"n", "groups", "edges", NULL};
    PyObject *n, *groups, *edges;
    PlanKernel *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO:PlanKernel", kwlist,
                                     &n, &groups, &edges))
        return NULL;
    if (!(self = (PlanKernel *)type->tp_alloc(type, 0)))
        return NULL;
    if (load_plan(self, n, groups, edges) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

static void
PlanKernel_dealloc(PlanKernel *self)
{
    Py_XDECREF(self->py);
    PyMem_Free(self->block);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Make self->py once per kernel; -1 with an exception set. */
static int
load_py_ints(PlanKernel *self)
{
    const Py_ssize_t m = self->m, size = m + self->nedges + ROWS * m;
    PyObject *py;

    if (self->py)
        return 0;
    if (!(py = PyTuple_New(size)))
        return -1;
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *v = PyLong_FromLongLong(i < m ? self->n[i]
                                          : i < m + self->nedges ? self->coeff[i - m]
                                          : i - m - self->nedges);
        if (!v) {
            Py_DECREF(py);
            return -1;
        }
        PyTuple_SET_ITEM(py, i, v);
    }
    PyObject_GC_UnTrack(py);
    /* allocating may have run Python code that made one meanwhile */
    if (self->py)
        Py_DECREF(py);
    else
        self->py = py;
    return 0;
}

#define RADIX(self, i) PyTuple_GET_ITEM((self)->py, (i))
#define COEFF(self, e) PyTuple_GET_ITEM((self)->py, (self)->m + (e))
#define CELL(self, c) PyTuple_GET_ITEM((self)->py, (self)->m + (self)->nedges + (c))

/* The state as a tuple of the plan's length (a new reference; the same
   object when it already is a tuple), or NULL with an exception set. */
static PyObject *
state_tuple(const PlanKernel *self, PyObject *values)
{
    PyObject *t = PySequence_Tuple(values);
    if (t && PyTuple_GET_SIZE(t) != self->m) {
        PyErr_Format(PyExc_ValueError, "state has %zd components, plan has %zd",
                     PyTuple_GET_SIZE(t), self->m);
        Py_CLEAR(t);
    }
    return t;
}

/* 1 when v is an int in [0, INT64_MAX], which is stored in *out; 0 when it
   is not.  Ints only, because converting anything else may run Python code. */
static int
fits_int64(PyObject *v, int64_t *out)
{
    int overflow = 0;
    if (!PyLong_Check(v))
        return 0;
    *out = PyLong_AsLongLongAndOverflow(v, &overflow);
    return !overflow && *out >= 0;
}

/* One update of a non-negative state into nxt, with the partial and common
   carries in p and pc, and in low each carry group's member whose partial
   carry the fold took, the first of the smallest as min() takes it; -1
   when a credit leaves int64. */
static int
update(const PlanKernel *self, const int64_t *state, int64_t *p, int64_t *pc,
       int64_t *nxt, int64_t *low)
{
    const Py_ssize_t m = self->m;
    const int64_t *n = self->n;
    Py_ssize_t i, j, g, e;

    for (i = 0; i < m; i++)
        p[i] = pc[i] = n[i] > 0 ? state[i] / n[i] : 0;
    for (g = 0; g < self->ngroups; g++) {
        int64_t at = self->grp_members[self->grp_off[g]];
        for (j = self->grp_off[g] + 1; j < self->grp_off[g + 1]; j++)
            if (p[self->grp_members[j]] < p[at])
                at = self->grp_members[j];
        low[g] = at;
        for (j = self->grp_off[g]; j < self->grp_off[g + 1]; j++)
            pc[self->grp_members[j]] = p[at];
    }
    /* pc[i] <= state[i] / n[i], so pc[i] * n[i] <= state[i]: cannot overflow */
    for (i = 0; i < m; i++)
        nxt[i] = state[i] - pc[i] * n[i];
    for (e = 0; e < self->nedges; e++) {
        int64_t credit;
        if (__builtin_mul_overflow(pc[self->src[e]], self->coeff[e], &credit)
            || __builtin_add_overflow(nxt[self->dst[e]], credit, &nxt[self->dst[e]]))
            return -1;
    }
    return 0;
}

/* Untrack a tuple whose items are all exact ints.  An int subclass
   instance may carry a __dict__, and through it a reference back to the
   tuple, so such a tuple stays tracked. */
static void
untrack_ints(PyObject *t)
{
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(t); i++)
        if (!PyLong_CheckExact(PyTuple_GET_ITEM(t, i)))
            return;
    PyObject_GC_UnTrack(t);
}

/* A new tuple of the n objects in row, untracked when all are exact ints. */
static PyObject *
copy_tuple(PyObject *const *row, Py_ssize_t n)
{
    PyObject *out = PyTuple_New(n);

    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++)
        PyTuple_SET_ITEM(out, i, Py_NewRef(row[i]));
    if (n)
        untrack_ints(out);
    return out;
}

/* One run() call's record in the making. */
typedef struct {
    PyObject **row;                 /* ROWS * m: the last update's rows, owned;
                                       the carries NULL before the first */
    PyObject **buf;                 /* 2 * ROWS * m: the (cell, value) pairs
                                       of the update being taken, owned */
    Py_ssize_t nbuf, count;         /* count: the updates recorded */
    PyObject *first[2];             /* the first update's partials and common */
    PyObject *changes;              /* a list: one tuple per later update */
} Record;

/* Log cell c, whose value the update being taken changed, unless that
   update is the first. */
static void
log_cell(const PlanKernel *self, Record *r, Py_ssize_t c)
{
    if (r->count) {
        r->buf[r->nbuf++] = Py_NewRef(CELL(self, c));
        r->buf[r->nbuf++] = Py_NewRef(r->row[c]);
    }
}

/* Set cell c of the rows to v, a new reference, and log it. */
static void
set_cell(const PlanKernel *self, Record *r, Py_ssize_t c, PyObject *v)
{
    Py_XSETREF(r->row[c], v);
    log_cell(self, r, c);
}

/* Record the update being taken: the first as its partials and common
   tuples, one tuple if they are equal, and each later one as the tuple of
   its changes, appended to r->changes; -1 with an exception set. */
static int
seal(const PlanKernel *self, Record *r)
{
    const Py_ssize_t m = self->m;
    PyObject **p = r->row + ROW_PARTIALS * m, **pc = r->row + ROW_COMMON * m, *t;
    int same = 1, rc;

    if (!r->count) {
        for (Py_ssize_t i = 0; i < m && same; i++)
            if (p[i] != pc[i] && (same = PyObject_RichCompareBool(p[i], pc[i], Py_EQ)) < 0)
                return -1;
        if (!(r->first[0] = copy_tuple(p, m)))
            return -1;
        if (!(r->first[1] = same ? Py_NewRef(r->first[0]) : copy_tuple(pc, m)))
            return -1;
        r->count = 1;
        return 0;
    }
    if (!(t = copy_tuple(r->buf, r->nbuf)))
        return -1;
    for (Py_ssize_t i = 0; i < r->nbuf; i++)
        Py_DECREF(r->buf[i]);
    r->nbuf = 0;
    rc = PyList_Append(r->changes, t);
    Py_DECREF(t);
    r->count += rc == 0;
    return rc;
}

/* Record updates from the state in r's rows in int64, until r holds
   limit updates (1), at a fixed point (0), or before an update int64
   cannot take (2); -1 with an exception set.  scr holds six rows of m and
   one of ngroups.  The rows hold every update's values, and each change
   is a new int; a common carry is the object of the partial carry it
   equals, its own or the one the fold took. */
static int
run_int64(const PlanKernel *self, int64_t *scr, Record *r, Py_ssize_t limit)
{
    const Py_ssize_t m = self->m;
    int64_t *s = scr, *nxt = s + m, *p = nxt + m, *pc = p + m, *lp = pc + m, *lpc = lp + m;
    int64_t *low = lpc + m, *t;
    PyObject **row = r->row, *v;
    Py_ssize_t i;

    for (i = 0; i < m; i++)
        if (!fits_int64(row[i], &s[i]))
            return 2;
    /* the last update's carries, -1 (no carry here) where int64 does not hold one */
    for (i = 0; r->count && i < m; i++) {
        if (!fits_int64(row[ROW_PARTIALS * m + i], &lp[i]))
            lp[i] = -1;
        if (!fits_int64(row[ROW_COMMON * m + i], &lpc[i]))
            lpc[i] = -1;
    }
    for (;;) {
        int moved = 0;

        if (update(self, s, p, pc, nxt, low) < 0)
            return 2;
        for (i = 0; i < m; i++)
            if (!r->count || p[i] != lp[i]) {
                if (!(v = PyLong_FromLongLong(p[i])))
                    return -1;
                set_cell(self, r, ROW_PARTIALS * m + i, v);
            }
        for (i = 0; i < m; i++)
            if (!r->count || pc[i] != lpc[i]) {
                Py_ssize_t at = pc[i] == p[i] ? i : low[self->group_of[i]];
                set_cell(self, r, ROW_COMMON * m + i, Py_NewRef(row[ROW_PARTIALS * m + at]));
            }
        if (seal(self, r) < 0)
            return -1;
        for (i = 0; i < m; i++)
            moved |= pc[i] != 0;
        if (!moved)
            return 0;
        for (i = 0; i < m; i++)
            if (nxt[i] != s[i]) {
                if (!(v = PyLong_FromLongLong(nxt[i])))
                    return -1;
                set_cell(self, r, ROW_STATE * m + i, v);
            }
        if (r->count == limit)
            return 1;
        t = s, s = nxt, nxt = t;
        t = lp, lp = p, p = t;
        t = lpc, lpc = pc, pc = t;
        for (i = 0; i < m; i++)
            if (s[i] < 0)
                return 2;
    }
}

/* A big-integer stretch's working rows, of m entries unless marked; the
   values themselves are the record's rows. */
typedef struct {
    Py_ssize_t *touched, ntouched;  /* entities the last update changed */
    Py_ssize_t *firing, nfiring;    /* entities whose common carry is nonzero */
    Py_ssize_t *fire_at;            /* an entity's place in firing, or -1 */
    Py_ssize_t *dirty, ndirty;      /* ngroups: groups to fold again */
    char *is_touched, *is_dirty;    /* membership of touched, of dirty */
    char *wide;                     /* not an int in [0, INT64_MAX] */
    PyObject **before;              /* a touched component's value when the
                                       update began */
} Frontier;

/* The common carry of entity j becomes q, which differs from it, and j
   fires when q is true; -1 with an exception set. */
static int
set_common(const PlanKernel *self, Record *r, Frontier *f, Py_ssize_t j, PyObject *q)
{
    int t = PyObject_IsTrue(q);
    if (t < 0)
        return -1;
    set_cell(self, r, ROW_COMMON * self->m + j, Py_NewRef(q));
    if (t && f->fire_at[j] < 0) {
        f->fire_at[j] = f->nfiring;
        f->firing[f->nfiring++] = j;
    }
    else if (!t && f->fire_at[j] >= 0) {
        Py_ssize_t last = f->firing[--f->nfiring];
        f->firing[f->fire_at[j]] = last;
        f->fire_at[last] = f->fire_at[j];
        f->fire_at[j] = -1;
    }
    return 0;
}

/* The carries of the entities the last update touched, then the folds of
   the groups whose partial carries changed; -1 with an exception set. */
static int
frontier_carries(const PlanKernel *self, Record *r, Frontier *f)
{
    const Py_ssize_t m = self->m;
    PyObject **s = r->row, **p = s + ROW_PARTIALS * m, **pc = s + ROW_COMMON * m;

    f->ndirty = 0;
    for (Py_ssize_t k = 0; k < f->ntouched; k++) {
        Py_ssize_t j = f->touched[k], g = self->group_of[j];
        PyObject *q;
        int changed;

        if (!self->n[j])
            continue;
        if (!(q = PyNumber_FloorDivide(s[j], RADIX(self, j))))
            return -1;
        if ((changed = PyObject_RichCompareBool(q, p[j], Py_NE)) <= 0) {
            Py_DECREF(q);
            if (changed < 0)
                return -1;
            continue;
        }
        set_cell(self, r, ROW_PARTIALS * m + j, q);
        if (g < 0) {
            /* its common carry is its partial carry, which just changed */
            if (set_common(self, r, f, j, q) < 0)
                return -1;
        }
        else if (!f->is_dirty[g]) {
            f->is_dirty[g] = 1;
            f->dirty[f->ndirty++] = g;
        }
    }
    for (Py_ssize_t k = 0; k < f->ndirty; k++) {
        Py_ssize_t g = f->dirty[k];
        const int64_t *x = self->grp_members + self->grp_off[g];
        const int64_t *end = self->grp_members + self->grp_off[g + 1];
        PyObject *low = p[*x];
        int ne;

        f->is_dirty[g] = 0;
        /* min(): the first of the smallest; p stays as it is meanwhile */
        for (const int64_t *y = x + 1; y < end; y++) {
            int lt = PyObject_RichCompareBool(p[*y], low, Py_LT);
            if (lt < 0)
                return -1;
            if (lt)
                low = p[*y];
        }
        for (; x < end; x++)
            if ((ne = PyObject_RichCompareBool(low, pc[*x], Py_NE)) < 0
                || (ne && set_common(self, r, f, *x, low) < 0))
                return -1;
    }
    return 0;
}

/* s[j] = op(s[j], c * by) for component j of the state row, which
   becomes touched; -1 with an exception set. */
static int
credit(Frontier *f, PyObject **s, Py_ssize_t j, PyObject *c, PyObject *by, binaryfunc op)
{
    PyObject *t, *v;

    if (!f->is_touched[j]) {
        f->is_touched[j] = 1;
        f->touched[f->ntouched++] = j;
        f->before[j] = Py_NewRef(s[j]);
    }
    if (!(t = PyNumber_Multiply(c, by)))
        return -1;
    v = op(s[j], t);
    Py_DECREF(t);
    if (!v)
        return -1;
    Py_SETREF(s[j], v);
    return 0;
}

/* The update's removals and credits by the entities that fire, into the
   state row, logged as changes where a component's value changed; -1 with
   an exception set.  Those components become the touched ones. */
static int
frontier_credits(const PlanKernel *self, Record *r, Frontier *f)
{
    PyObject **s = r->row, **pc = s + ROW_COMMON * self->m;
    Py_ssize_t kept = 0;

    for (Py_ssize_t k = 0; k < f->ntouched; k++)
        f->is_touched[f->touched[k]] = 0;
    f->ntouched = 0;
    for (Py_ssize_t k = 0; k < f->nfiring; k++) {
        Py_ssize_t i = f->firing[k];
        PyObject *c = pc[i];

        if (credit(f, s, i, c, RADIX(self, i), PyNumber_InPlaceSubtract) < 0)
            return -1;
        for (int64_t e = self->first_out[i]; e >= 0; e = self->next_out[e])
            if (credit(f, s, self->dst[e], c, COEFF(self, e), PyNumber_InPlaceAdd) < 0)
                return -1;
    }
    for (Py_ssize_t k = 0; k < f->ntouched; k++) {
        Py_ssize_t j = f->touched[k];
        int ne = PyObject_RichCompareBool(s[j], f->before[j], Py_NE);

        Py_CLEAR(f->before[j]);
        if (ne < 0)
            return -1;
        if (ne) {
            log_cell(self, r, ROW_STATE * self->m + j);
            f->touched[kept++] = j;
        }
        else
            f->is_touched[j] = 0;
    }
    f->ntouched = kept;
    return 0;
}

/* Record updates from the state in r's rows in Python objects, the
   frontier way, until r holds limit updates (1), at a fixed point (0), or
   once every component fits in int64 after at least one update (2); -1
   with an exception set.  *wide becomes the count of the start's
   components outside int64.  The first update computes every carry, from
   zero carries for a run's first and from the last update's otherwise. */
static int
run_big(PlanKernel *self, Record *r, Py_ssize_t limit, Py_ssize_t *wide)
{
    const Py_ssize_t m = self->m, ng = self->ngroups;
    PyObject **row = r->row;
    Py_ssize_t i, left = 0;
    Frontier f;
    char *block;
    int stop = -1;
    int64_t v;

    if (!(block = PyMem_Calloc(1, m * sizeof(PyObject *) + (3 * m + ng) * sizeof(Py_ssize_t)
                                  + 2 * m + ng + 1))) {
        PyErr_NoMemory();
        return -1;
    }
    f.before = (PyObject **)block;
    f.touched = (Py_ssize_t *)(f.before + m);
    f.firing = f.touched + m;
    f.fire_at = f.firing + m;
    f.dirty = f.fire_at + m;
    f.is_touched = (char *)(f.dirty + ng);
    f.is_dirty = f.is_touched + m;
    f.wide = f.is_dirty + ng;
    f.ntouched = f.nfiring = 0;
    for (i = 0; i < m; i++) {
        PyObject **pc = &row[ROW_COMMON * m + i];
        int t = 0;

        if (!*pc) {
            if (!(row[ROW_PARTIALS * m + i] = PyLong_FromLong(0)))
                goto done;
            *pc = Py_NewRef(row[ROW_PARTIALS * m + i]);
        }
        else if ((t = PyObject_IsTrue(*pc)) < 0)
            goto done;
        f.fire_at[i] = t ? f.nfiring : -1;
        if (t)
            f.firing[f.nfiring++] = i;
        f.is_touched[i] = 1;
        f.touched[f.ntouched++] = i;
        f.wide[i] = !fits_int64(row[i], &v);
        left += f.wide[i];
    }
    *wide = left;
    for (;;) {
        if (frontier_carries(self, r, &f) < 0 || seal(self, r) < 0)
            break;
        if (!f.nfiring) {
            stop = 0;
            break;
        }
        if (frontier_credits(self, r, &f) < 0)
            break;
        if (r->count == limit) {
            stop = 1;
            break;
        }
        for (Py_ssize_t k = 0; k < f.ntouched; k++) {
            Py_ssize_t j = f.touched[k];
            char b = !fits_int64(row[j], &v);
            left += b - f.wide[j];
            f.wide[j] = b;
        }
        if (!left) {
            stop = 2;
            break;
        }
    }
done:
    for (i = 0; i < m; i++)
        Py_XDECREF(f.before[i]);
    PyMem_Free(block);
    return stop;
}

static PyObject *
PlanKernel_run(PlanKernel *self, PyObject *args)
{
    PyObject *values, *stretches = Py_None, *start = NULL, *last, *out = NULL;
    PyObject **block = NULL;
    Py_ssize_t limit, i, m = self->m;
    int64_t *scr = NULL;
    Record r = {NULL, NULL, 0, 0, {NULL, NULL}, NULL};
    int stop;

    if (!PyArg_ParseTuple(args, "On|O:run", &values, &limit, &stretches))
        return NULL;
    if (limit < 1) {
        PyErr_SetString(PyExc_ValueError, "limit must be >= 1");
        return NULL;
    }
    if (stretches != Py_None && !PyList_Check(stretches)) {
        PyErr_SetString(PyExc_TypeError, "stretches must be a list or None");
        return NULL;
    }
    if (load_py_ints(self) < 0 || !(start = state_tuple(self, values)))
        return NULL;
    untrack_ints(start);
    /* the record's rows and pending pairs, and run_int64's scratch rows,
       for this call only */
    if (!(block = PyMem_Calloc(3 * ROWS * m + 1, sizeof(PyObject *)))
        || !(scr = PyMem_Malloc((6 * m + self->ngroups + 1) * sizeof(int64_t)))) {
        PyErr_NoMemory();
        goto done;
    }
    r.row = block;
    r.buf = block + ROWS * m;
    if (!(r.changes = PyList_New(0)))
        goto done;
    for (i = 0; i < m; i++)
        r.row[i] = Py_NewRef(PyTuple_GET_ITEM(start, i));
    while ((stop = run_int64(self, scr, &r, limit)) == 2) {
        Py_ssize_t before = r.count, wide = 0;
        if ((stop = run_big(self, &r, limit, &wide)) < 0)
            goto done;
        if (stretches != Py_None) {
            PyObject *record = Py_BuildValue("(nni)", wide, r.count - before, stop);
            if (!record || PyList_Append(stretches, record) < 0) {
                Py_XDECREF(record);
                goto done;
            }
            Py_DECREF(record);
        }
        if (stop != 2)
            break;
    }
    if (stop < 0 || !(last = copy_tuple(r.row, m)))
        goto done;
    out = Py_BuildValue("(OOOONi)", start, r.first[0], r.first[1], r.changes, last, stop);
done:
    if (block) {
        for (i = 0; i < ROWS * m; i++)
            Py_XDECREF(r.row[i]);
        for (i = 0; i < r.nbuf; i++)
            Py_DECREF(r.buf[i]);
    }
    PyMem_Free(block);
    PyMem_Free(scr);
    Py_XDECREF(r.first[0]);
    Py_XDECREF(r.first[1]);
    Py_XDECREF(r.changes);
    Py_XDECREF(start);
    return out;
}

static PyMethodDef PlanKernel_methods[] = {
    {"run", (PyCFunction)PlanKernel_run, METH_VARARGS,
     "run(state, limit, stretches=None) -> (state, partials, common, changes,\n"
     "last, stop): from 1 to `limit` updates, in int64 while it holds them and\n"
     "in exact ints past it.\n\n"
     "state is the start as a tuple, and partials and common are the first\n"
     "update's carries, one tuple when they are equal.  changes holds one\n"
     "tuple per later update: the cells whose value differs from the update\n"
     "before, as (cell, value) pairs laid end to end, cell row * m + i for\n"
     "entity i's state (row 0), partial carry (1) or common carry (2).  last\n"
     "is the state to continue from.  stop is 0 at a fixed point (the last\n"
     "update's common carries are all zero) and 1 when `limit` updates were\n"
     "taken.  A list passed as `stretches` receives one (wide, updates, end)\n"
     "tuple per big-integer stretch: how many components of its start were\n"
     "outside int64, how many updates it took, and its end: 0 at a fixed\n"
     "point, 1 at the limit, 2 back into int64."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PlanKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "caosim._stepcore.PlanKernel",
    .tp_basicsize = sizeof(PlanKernel),
    .tp_dealloc = (destructor)PlanKernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "PlanKernel(n, groups, edges): one flattened update plan, "
              "ready to step states a stretch of updates at a time.",
    .tp_methods = PlanKernel_methods,
    .tp_new = PlanKernel_new,
};

/* ======== The operational route: Enactor ======== */

/* An Enactor makes run(engine="both")'s lock-step check on the compiled
   backend.  It is a second reading of the update, built from the operator
   tables of operational.resolve(spec), never from a PlanKernel's plan, and
   it calls nothing of the PlanKernel section.  Each operator is enacted
   literally, as operational.enactor enacts it: its common carry c is the
   least floor(x / n) over its inputs, c * n is taken from each input and
   c * coeff credited to each output.  Carries are read from cur, the state
   the update starts from, and removals and credits go into s.  The first
   update enacts every operator, each later one only the operators that
   read a component the last update changed: the readers of the inputs and
   outputs of the operators that fired.

   It holds its state in int64 from one call to the next.  send((stretch,
   last)) takes one update per update of the matrix route's stretch record
   (k, state, partials, common, changes) and returns what
   operational.enactor's send((stretch, last)) returns: None when all
   match, else (i, (next, partials, common)) for the first mismatch, which
   ends the enactor's use.  The first update is compared in full: the
   record's state with the one it starts from, and its carries.  Each
   later one by its changes: the enactor flags every cell its own update
   changes, and the record's changes must be those cells, each once, with
   the values it gave them -- the carries in the update's own changes, the
   components of its next state in the next update's.  The state after
   the last update is compared with last in full.  Where an update would leave int64, or a value it is
   compared with is not an exact int, it returns the update's index i
   instead: it then holds the state update i starts from (its state
   attribute), and the caller checks the rest of the stretch with
   operational.enactor.  A start that is not all exact ints in int64 is
   handed back at update 0.

   Most values a trace holds are small, and CPython keeps one int object
   for each value from -5 to 256.  So before it converts a value, the check
   asks whether it is that cached object for the value it computed itself:
   an object's value never changes, so the one pointer comparison proves
   the value equal, and takes nothing on trust from the matrix route.  Any
   other value is converted and compared in full.

   No Python code runs while a record is compared, so it cannot change
   meanwhile: an exact int is read without calling into Python, and
   nothing is allocated until the result.  A record of the wrong shape
   raises TypeError or ValueError where it is read, which ends the
   enactor's use too. */

typedef struct {
    PyObject_HEAD
    Py_ssize_t m, nops, ndirty, nmarked;
    int64_t *in_off, *in_at, *in_n;     /* nops + 1 offsets; each input's
                                           entity and radix */
    int64_t *out_off, *out_at, *out_k;  /* the same for the outputs, with
                                           each one's coefficient */
    int64_t *rd_off, *rd_op;            /* m + 1 offsets; the operators that
                                           read each entity */
    int64_t *cur, *s, *p, *pc;          /* m each */
    int64_t *dirty, *marked, *is_marked;/* nops each: the operators to enact,
                                           those marked for the next update,
                                           and which are marked */
    int64_t *touched, *is_touched;      /* m each: the components this
                                           update removes from or credits */
    int64_t *changed, *flagged;         /* ROWS * m each: whether a cell is
                                           flagged as changed, and the
                                           flagged cells */
    int64_t *pend_cell, *pend_at;       /* 2 * m each: the carry cells of the
                                           next update's changes, and where
                                           their values are in its tuple */
    Py_ssize_t ntouched, nflagged, npending;
    int64_t *block;                     /* owns every row above */
    int grouped;                        /* an operator has two or more inputs */
    PyObject *start;                    /* the start, when int64 does not hold it */
} Enactor;

/* Read an (index, value) pair of an operator: ValueError for an index
   outside the m components or a value below lo, OverflowError for a value
   outside int64. */
static int
enactor_pair(PyObject *item, Py_ssize_t m, int64_t lo, int64_t *at, int64_t *value)
{
    PyObject *pair = PySequence_Tuple(item);
    long long i, v;
    int overflow = 0, rc = -1;

    if (!pair)
        return -1;
    if (PyTuple_GET_SIZE(pair) != 2)
        PyErr_SetString(PyExc_ValueError, "each input and output must be an (index, value) pair");
    else if ((i = PyLong_AsLongLongAndOverflow(PyTuple_GET_ITEM(pair, 0), &overflow)) == -1
             && PyErr_Occurred())
        ;
    else if (overflow || i < 0 || i >= m)
        PyErr_Format(PyExc_ValueError, "entity index %R outside a state of %zd components",
                     PyTuple_GET_ITEM(pair, 0), m);
    else if ((v = PyLong_AsLongLong(PyTuple_GET_ITEM(pair, 1))) == -1 && PyErr_Occurred())
        ;
    else if (v < lo)
        PyErr_Format(PyExc_ValueError, "radix %R is below 1", PyTuple_GET_ITEM(pair, 1));
    else {
        *at = i;
        *value = v;
        rc = 0;
    }
    Py_DECREF(pair);
    return rc;
}

/* Fill the tables from the operators and hold the state; -1 with an
   exception set.  Every sequence is copied into a tuple before it is read,
   because converting an item may run Python code that could change it. */
static int
enactor_load(Enactor *self, PyObject *ops_obj, PyObject *state_obj)
{
    PyObject *state = NULL, *ops = NULL, *sides = NULL, *op = NULL;
    Py_ssize_t m, nops, o, side, i, count[2] = {0, 0};
    int64_t j;
    int rc = -1;

    if (!(state = PySequence_Tuple(state_obj)) || !(ops = PySequence_Tuple(ops_obj)))
        goto done;
    m = self->m = PyTuple_GET_SIZE(state);
    nops = self->nops = PyTuple_GET_SIZE(ops);
    /* each operator's inputs, then its outputs, as tuples */
    if (!(sides = PyTuple_New(2 * nops)))
        goto done;
    for (o = 0; o < nops; o++) {
        if (!(op = PySequence_Tuple(PyTuple_GET_ITEM(ops, o))))
            goto done;
        if (PyTuple_GET_SIZE(op) != 2) {
            PyErr_SetString(PyExc_ValueError, "each operator must be (inputs, outputs)");
            goto done;
        }
        for (side = 0; side < 2; side++) {
            PyObject *pairs = PySequence_Tuple(PyTuple_GET_ITEM(op, side));
            if (!pairs)
                goto done;
            count[side] += PyTuple_GET_SIZE(pairs);
            PyTuple_SET_ITEM(sides, 2 * o + side, pairs);
        }
        Py_CLEAR(op);
    }

    self->block = PyMem_Calloc(2 * (nops + 1) + 3 * count[0] + 2 * count[1] + m + 1 + 6 * m
                               + 2 * ROWS * m + 4 * m
                               + 3 * nops, sizeof(int64_t));
    if (!self->block) {
        PyErr_NoMemory();
        goto done;
    }
    self->in_off = self->block;
    self->in_at = self->in_off + nops + 1;
    self->in_n = self->in_at + count[0];
    self->out_off = self->in_n + count[0];
    self->out_at = self->out_off + nops + 1;
    self->out_k = self->out_at + count[1];
    self->rd_off = self->out_k + count[1];
    self->rd_op = self->rd_off + m + 1;
    self->cur = self->rd_op + count[0];
    self->s = self->cur + m;
    self->p = self->s + m;
    self->pc = self->p + m;
    self->dirty = self->pc + m;
    self->marked = self->dirty + nops;
    self->is_marked = self->marked + nops;
    self->touched = self->is_marked + nops;
    self->is_touched = self->touched + m;
    self->changed = self->is_touched + m;
    self->flagged = self->changed + ROWS * m;
    self->pend_cell = self->flagged + ROWS * m;
    self->pend_at = self->pend_cell + 2 * m;

    for (o = 0; o < nops; o++) {
        PyObject *in = PyTuple_GET_ITEM(sides, 2 * o), *out = PyTuple_GET_ITEM(sides, 2 * o + 1);
        int64_t a = self->in_off[o], b = self->out_off[o];

        for (i = 0; i < PyTuple_GET_SIZE(in); i++, a++) {
            if (enactor_pair(PyTuple_GET_ITEM(in, i), m, 1, &self->in_at[a], &self->in_n[a]) < 0)
                goto done;
            self->rd_off[self->in_at[a] + 1]++;
        }
        for (i = 0; i < PyTuple_GET_SIZE(out); i++, b++)
            if (enactor_pair(PyTuple_GET_ITEM(out, i), m, INT64_MIN, &self->out_at[b],
                             &self->out_k[b]) < 0)
                goto done;
        self->in_off[o + 1] = a;
        self->out_off[o + 1] = b;
        self->grouped |= PyTuple_GET_SIZE(in) > 1;
        self->dirty[o] = o;
    }
    self->ndirty = nops;
    /* the readers of each entity, in operator order; s counts them off */
    for (i = 0; i < m; i++)
        self->s[i] = self->rd_off[i + 1] += self->rd_off[i];
    for (o = nops - 1; o >= 0; o--)
        for (j = self->in_off[o + 1] - 1; j >= self->in_off[o]; j--)
            self->rd_op[--self->s[self->in_at[j]]] = o;

    for (i = 0; i < m && !self->start; i++) {
        PyObject *v = PyTuple_GET_ITEM(state, i);
        int overflow = 0;
        if (PyLong_CheckExact(v))
            self->cur[i] = PyLong_AsLongLongAndOverflow(v, &overflow);
        if (!PyLong_CheckExact(v) || overflow)
            self->start = Py_NewRef(state);
    }
    memcpy(self->s, self->cur, m * sizeof(int64_t));
    rc = 0;
done:
    Py_XDECREF(op);
    Py_XDECREF(sides);
    Py_XDECREF(ops);
    Py_XDECREF(state);
    return rc;
}

static PyObject *
Enactor_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"operators", "state", NULL};
    PyObject *operators, *state;
    Enactor *self;

    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:Enactor", kwlist, &operators, &state))
        return NULL;
    if (!(self = (Enactor *)type->tp_alloc(type, 0)))
        return NULL;
    if (enactor_load(self, operators, state) < 0) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

/* The start may hold int subclass instances, which can refer back. */
static int
Enactor_traverse(Enactor *self, visitproc visit, void *arg)
{
    Py_VISIT(self->start);
    return 0;
}

static int
Enactor_clear(Enactor *self)
{
    Py_CLEAR(self->start);
    return 0;
}

static void
Enactor_dealloc(Enactor *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->start);
    PyMem_Free(self->block);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Mark the readers of the entities at[lo:hi] for the next update. */
static void
enactor_mark(Enactor *self, const int64_t *at, int64_t lo, int64_t hi)
{
    for (int64_t j = lo; j < hi; j++)
        for (int64_t r = self->rd_off[at[j]]; r < self->rd_off[at[j] + 1]; r++) {
            int64_t o = self->rd_op[r];
            if (!self->is_marked[o]) {
                self->is_marked[o] = 1;
                self->marked[self->nmarked++] = o;
            }
        }
}

/* Flag cell c as one the updates changed. */
static void
enactor_flag(Enactor *self, int64_t c)
{
    if (!self->changed[c]) {
        self->changed[c] = 1;
        self->flagged[self->nflagged++] = c;
    }
}

/* Clear every flag. */
static void
enactor_unflag(Enactor *self)
{
    for (Py_ssize_t k = 0; k < self->nflagged; k++)
        self->changed[self->flagged[k]] = 0;
    self->nflagged = 0;
}

/* s[i] = s[i] + c * k, or minus it; -1 when a value would leave int64. */
static int
enactor_credit(Enactor *self, int64_t i, int64_t c, int64_t k, int minus)
{
    int64_t t;

    if (!self->is_touched[i]) {
        self->is_touched[i] = 1;
        self->touched[self->ntouched++] = i;
    }
    if (__builtin_mul_overflow(c, k, &t)
        || (minus ? __builtin_sub_overflow(self->s[i], t, &self->s[i])
                  : __builtin_add_overflow(self->s[i], t, &self->s[i])))
        return -1;
    return 0;
}

/* One update of cur into s, p and pc by the dirty operators, flagging the
   carries it changes and marking the next update's operators; -1 when a
   value would leave int64. */
static int
enactor_update(Enactor *self)
{
    const int64_t m = self->m;
    int64_t *cur = self->cur, *p = self->p, *pc = self->pc;

    for (Py_ssize_t d = 0; d < self->ndirty; d++) {
        int64_t o = self->dirty[d], lo = self->in_off[o], hi = self->in_off[o + 1], c = 0, j;

        for (j = lo; j < hi; j++) {
            int64_t i = self->in_at[j], x = cur[i], n = self->in_n[j];
            int64_t q = x / n - (x % n < 0);   /* floor, as n >= 1 */
            if (q != p[i]) {
                p[i] = q;
                enactor_flag(self, ROW_PARTIALS * m + i);
            }
            if (j == lo || q < c)
                c = q;
        }
        for (j = lo; j < hi; j++)
            if (pc[self->in_at[j]] != c) {
                pc[self->in_at[j]] = c;
                enactor_flag(self, ROW_COMMON * m + self->in_at[j]);
            }
        if (!c)
            continue;
        for (j = lo; j < hi; j++)
            if (enactor_credit(self, self->in_at[j], c, self->in_n[j], 1) < 0)
                return -1;
        for (j = self->out_off[o]; j < self->out_off[o + 1]; j++)
            if (enactor_credit(self, self->out_at[j], c, self->out_k[j], 0) < 0)
                return -1;
        enactor_mark(self, self->in_at, lo, hi);
        enactor_mark(self, self->out_at, self->out_off[o], self->out_off[o + 1]);
    }
    return 0;
}

/* Go back to the state the update started from, with no cell flagged and
   every operator to enact in the next update. */
static void
enactor_rewind(Enactor *self)
{
    for (Py_ssize_t k = 0; k < self->ntouched; k++) {
        int64_t i = self->touched[k];
        self->s[i] = self->cur[i];
        self->is_touched[i] = 0;
    }
    self->ntouched = 0;
    enactor_unflag(self);
    for (Py_ssize_t k = 0; k < self->nmarked; k++)
        self->is_marked[self->marked[k]] = 0;
    self->nmarked = 0;
    for (Py_ssize_t o = 0; o < self->nops; o++)
        self->dirty[o] = o;
    self->ndirty = self->nops;
}

/* s becomes the state, and the marked operators the dirty ones. */
static void
enactor_commit(Enactor *self)
{
    int64_t *t = self->dirty;

    for (Py_ssize_t k = 0; k < self->ntouched; k++) {
        int64_t i = self->touched[k];
        self->is_touched[i] = 0;
        self->cur[i] = self->s[i];
    }
    self->ntouched = 0;
    self->dirty = self->marked;
    self->marked = t;
    self->ndirty = self->nmarked;
    self->nmarked = 0;
    for (Py_ssize_t k = 0; k < self->ndirty; k++)
        self->is_marked[self->dirty[k]] = 0;
}

/* The interpreter's cached ints 0..ENACTOR_SMALL, by value, made at module
   init. */
#define ENACTOR_SMALL 256
static PyObject *enactor_small[ENACTOR_SMALL + 1];

/* 1 when v equals value, 0 when it does not, -1 when it is not an exact
   int. */
static int
enactor_value(PyObject *v, int64_t value)
{
    int overflow;
    if ((uint64_t)value <= ENACTOR_SMALL && v == enactor_small[value])
        return 1;
    if (!PyLong_CheckExact(v))
        return -1;
    return PyLong_AsLongLongAndOverflow(v, &overflow) == value && !overflow;
}

/* 1 when the items of the tuple t equal the m values, 0 when one differs,
   -1 at an item that is not an exact int before any difference. */
static int
enactor_equal(const int64_t *values, PyObject *t, Py_ssize_t m)
{
    for (Py_ssize_t i = 0; i < m; i++) {
        int eq = enactor_value(PyTuple_GET_ITEM(t, i), values[i]);
        if (eq <= 0)
            return eq;
    }
    return 1;
}

/* Read the (cell, value) pairs of the tuple ch, an update's changes:
   its components are the last update's next state, and must be the
   flagged cells, each once, with the values this route gave them; its
   carries are set aside for the update's own check.  1 when the
   components match, 0 when they do not; -1 at a value that is not an
   exact int before any difference, and -2 with TypeError or ValueError
   for a malformed pair. */
static int
enactor_lookahead(Enactor *self, PyObject *ch)
{
    const Py_ssize_t m = self->m, n = PyTuple_GET_SIZE(ch);
    Py_ssize_t moved = 0;

    self->npending = 0;
    if (n % 2) {
        PyErr_SetString(PyExc_ValueError, "a change tuple must hold (cell, value) pairs");
        return -2;
    }
    for (Py_ssize_t i = 0; i < n; i += 2) {
        PyObject *cell = PyTuple_GET_ITEM(ch, i);
        int overflow = 0, eq;
        long long c;

        if (!PyLong_CheckExact(cell)) {
            PyErr_Format(PyExc_TypeError, "a cell must be an int, not %.100s", Py_TYPE(cell)->tp_name);
            return -2;
        }
        c = PyLong_AsLongLongAndOverflow(cell, &overflow);
        if (overflow || c < 0 || c >= ROWS * m) {
            PyErr_Format(PyExc_ValueError, "cell %R outside the %zd cells of a record", cell, ROWS * m);
            return -2;
        }
        if (c >= ROW_PARTIALS * m) {
            /* more carries than there are carry cells: one listed twice */
            if (self->npending == (ROWS - ROW_PARTIALS) * m)
                return 0;
            self->pend_cell[self->npending] = c;
            self->pend_at[self->npending++] = i + 1;
            continue;
        }
        /* a component the update left as it was, or one listed twice */
        if (!self->changed[c])
            return 0;
        self->changed[c] = 0;
        moved++;
        if ((eq = enactor_value(PyTuple_GET_ITEM(ch, i + 1), self->s[c])) <= 0)
            return eq;
    }
    return moved == self->nflagged;
}

/* 1 when the carries set aside from the update's changes ch are the
   flagged cells, each once, with the values this route gave them; 0 when
   they are not; -1 at a value that is not an exact int before any
   difference. */
static int
enactor_carries(Enactor *self, PyObject *ch)
{
    const Py_ssize_t m = self->m;
    Py_ssize_t seen = 0;

    for (Py_ssize_t k = 0; k < self->npending; k++) {
        int64_t c = self->pend_cell[k];
        int eq;

        if (!self->changed[c])
            return 0;
        self->changed[c] = 0;
        seen++;
        eq = enactor_value(PyTuple_GET_ITEM(ch, self->pend_at[k]),
                           c < ROW_COMMON * m ? self->p[c - m] : self->pc[c - ROW_COMMON * m]);
        if (eq <= 0)
            return eq;
    }
    return seen == self->nflagged;
}

/* Flag the components the update changed, s against cur. */
static void
enactor_moved(Enactor *self)
{
    for (Py_ssize_t k = 0; k < self->ntouched; k++) {
        int64_t i = self->touched[k];
        if (self->s[i] != self->cur[i])
            enactor_flag(self, ROW_STATE * self->m + i);
    }
}

/* A new tuple of the m values. */
static PyObject *
enactor_tuple(const int64_t *values, Py_ssize_t m)
{
    PyObject *out = PyTuple_New(m);
    for (Py_ssize_t i = 0; out && i < m; i++) {
        PyObject *v = PyLong_FromLongLong(values[i]);
        if (!v)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, v);
    }
    return out;
}

/* TypeError unless t is a tuple, ValueError unless it has m items. */
static int
enactor_shape(PyObject *t, Py_ssize_t m)
{
    if (!PyTuple_Check(t)) {
        PyErr_Format(PyExc_TypeError, "a state or carry row must be a tuple, not %.100s",
                     Py_TYPE(t)->tp_name);
        return -1;
    }
    if (PyTuple_GET_SIZE(t) != m) {
        PyErr_Format(PyExc_ValueError, "a row has %zd components, the state %zd",
                     PyTuple_GET_SIZE(t), m);
        return -1;
    }
    return 0;
}

/* (j, (next, partials, common)): this route's update j. */
static PyObject *
enactor_mismatch(Enactor *self, Py_ssize_t j, int same)
{
    PyObject *pt = enactor_tuple(self->p, self->m);
    PyObject *pct = !pt ? NULL : same ? Py_NewRef(pt) : enactor_tuple(self->pc, self->m);
    PyObject *nxt = !pct ? NULL : enactor_tuple(self->s, self->m);
    PyObject *out = nxt ? Py_BuildValue("(n(OOO))", j, nxt, pt, pct) : NULL;

    Py_XDECREF(nxt);
    Py_XDECREF(pct);
    Py_XDECREF(pt);
    return out;
}

/* The fields of a stretch record, caosim.model.Stretch. */
typedef enum {
    REC_K,
    REC_STATE,
    REC_PARTIALS,
    REC_COMMON,
    REC_CHANGES,
    REC_FIELDS
} RecordField;

static PyObject *
Enactor_send(Enactor *self, PyObject *job)
{
    PyObject *record, *last, *changes, *mp, *mpc;
    Py_ssize_t n, j;
    const Py_ssize_t m = self->m;

    if (!PyTuple_Check(job) || PyTuple_GET_SIZE(job) != 2) {
        PyErr_SetString(PyExc_TypeError, "send() takes a (stretch, last) pair");
        return NULL;
    }
    record = PyTuple_GET_ITEM(job, 0);
    last = PyTuple_GET_ITEM(job, 1);
    if (!PyTuple_Check(record) || PyTuple_GET_SIZE(record) != REC_FIELDS) {
        PyErr_SetString(PyExc_TypeError,
                        "a stretch must be a (k, state, partials, common, changes) tuple");
        return NULL;
    }
    changes = PyTuple_GET_ITEM(record, REC_CHANGES);
    mp = PyTuple_GET_ITEM(record, REC_PARTIALS);
    mpc = PyTuple_GET_ITEM(record, REC_COMMON);
    if (!PyList_Check(changes)) {
        PyErr_Format(PyExc_TypeError, "a stretch's changes must be a list, not %.100s",
                     Py_TYPE(changes)->tp_name);
        return NULL;
    }
    if (enactor_shape(PyTuple_GET_ITEM(record, REC_STATE), m) < 0 || enactor_shape(mp, m) < 0
        || enactor_shape(mpc, m) < 0 || enactor_shape(last, m) < 0)
        return NULL;
    n = 1 + PyList_GET_SIZE(changes);
    for (j = 0; j < n; j++) {
        PyObject *ch = j ? PyList_GET_ITEM(changes, j - 1) : NULL;
        PyObject *after = j + 1 < n ? PyList_GET_ITEM(changes, j) : NULL;
        int same = 0, eq = -1;

        if ((ch && !PyTuple_Check(ch)) || (after && !PyTuple_Check(after))) {
            PyErr_Format(PyExc_TypeError, "an update's changes must be a tuple, not %.100s",
                         Py_TYPE(ch && !PyTuple_Check(ch) ? ch : after)->tp_name);
            return NULL;
        }
        if (!self->start && enactor_update(self) == 0) {
            same = !self->grouped || !memcmp(self->p, self->pc, m * sizeof(int64_t));
            /* the update's carries: the first in full, where common carries
               that are the partials' own tuple on both sides are equal when
               the partials are, and each later one by its changes */
            if (ch)
                eq = enactor_carries(self, ch);
            else if ((eq = enactor_equal(self->cur, PyTuple_GET_ITEM(record, REC_STATE), m)) == 1
                     && (eq = enactor_equal(self->p, mp, m)) == 1 && !(same && mpc == mp))
                eq = enactor_equal(self->pc, mpc, m);
            /* its next state: the components the next update's changes
               name, or last */
            if (eq == 1) {
                enactor_unflag(self);
                if (after) {
                    enactor_moved(self);
                    eq = enactor_lookahead(self, after);
                }
                else
                    eq = enactor_equal(self->s, last, m);
            }
        }
        if (eq < 0)
            enactor_rewind(self);
        if (eq == -2)
            return NULL;
        if (eq < 0)
            return PyLong_FromSsize_t(j);
        if (!eq)
            return enactor_mismatch(self, j, same);
        enactor_unflag(self);
        enactor_commit(self);
    }
    Py_RETURN_NONE;
}

static PyObject *
Enactor_state(Enactor *self, void *closure)
{
    (void)closure;
    return self->start ? Py_NewRef(self->start) : enactor_tuple(self->cur, self->m);
}

static PyMethodDef Enactor_methods[] = {
    {"send", (PyCFunction)Enactor_send, METH_O,
     "send((stretch, last)) -> None | (i, (next, partials, common)) | i: check\n"
     "a stretch record (k, state, partials, common, changes) of the matrix\n"
     "route, one update per update it records: the first in full, each later\n"
     "one by its changes, which must be the cells this route's updates\n"
     "changed, each once, with the values it gave them; the state after the\n"
     "last update is compared with last.  None when all match; the first\n"
     "mismatch, with this route's result there; or the index i of the update\n"
     "that leaves int64 or meets a value that is not an exact int, the state\n"
     "then being that update's start.  TypeError or ValueError for a record\n"
     "of the wrong shape: rows that are not tuples of the state's length,\n"
     "changes that are not a list of tuples of (cell, value) pairs."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef Enactor_getset[] = {
    {"state", (getter)Enactor_state, NULL,
     "The state the next update starts from, as a tuple.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject EnactorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "caosim._stepcore.Enactor",
    .tp_basicsize = sizeof(Enactor),
    .tp_dealloc = (destructor)Enactor_dealloc,
    .tp_traverse = (traverseproc)Enactor_traverse,
    .tp_clear = (inquiry)Enactor_clear,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Enactor(operators, state): operational.resolve(spec)'s operators, "
              "enacted literally in int64 from state, to check the matrix route's "
              "stretches with.  ValueError for an entity index outside the state or "
              "a radix below 1, OverflowError for a radix or coefficient outside "
              "int64.",
    .tp_methods = Enactor_methods,
    .tp_getset = Enactor_getset,
    .tp_new = Enactor_new,
};

/* Fill enactor_small once; -1 with an exception set. */
static int
enactor_load_small(void)
{
    for (long i = 0; i <= ENACTOR_SMALL; i++)
        if (!enactor_small[i] && !(enactor_small[i] = PyLong_FromLong(i)))
            return -1;
    return 0;
}

/* ======== The module ======== */

static struct PyModuleDef stepcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stepcore",
    .m_doc = "Overflow-checked 64-bit step kernel, and the lock-step enactor.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__stepcore(void)
{
    PyObject *mod;
    if (PyType_Ready(&PlanKernelType) < 0 || PyType_Ready(&EnactorType) < 0
        || enactor_load_small() < 0)
        return NULL;
    if (!(mod = PyModule_Create(&stepcore_module)))
        return NULL;
    if (PyModule_AddObjectRef(mod, "PlanKernel", (PyObject *)&PlanKernelType) < 0
        || PyModule_AddObjectRef(mod, "Enactor", (PyObject *)&EnactorType) < 0) {
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
