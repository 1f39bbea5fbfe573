/* Step kernel: int64 while it holds, exact ints past it; and the lock-step
   check of the other route, in int64.

   The file has four sections, each headed by a line of its own: the matrix
   route's PlanKernel, the trace entries, the operational route's Enactor,
   and the module.  The two routes' sections share no code: neither names a
   function, type or static of the other (tests/test_kernel.py checks it),
   so a slip in one shows as a divergence in the other.  They live in one
   file because the package builds one extension from it, and so does the
   benchmark.

   A PlanKernel freezes one update plan -- per-entity radices, carry groups
   and conversion edges, all given by entity index -- into C arrays at
   construction, with each entity's outgoing edges and its one carry group.
   Construction raises ValueError for a plan whose indices fall outside the
   state, whose radices are negative or which puts an entity in two carry
   groups, and OverflowError for one whose radices or coefficients do not
   fit in int64.

   Its one method, run(state, limit), takes up to `limit` updates in a row
   without returning to Python in between.  While int64 holds the state and
   every credit, the state stays in int64 from one update to the next, and
   only the tuples each update records are built.  Every multiplication and
   addition that could leave int64 is checked, and so is every state about
   to be stepped: a component that is negative, not an int, or outside int64
   ends the int64 loop too, as a plan with negative coefficients may need.

   There a big-integer stretch starts.  It holds the components and carries
   as Python objects and updates them with PyNumber_* calls, which stay
   exact, the frontier way, as kernel._frontier steps the pure backend: only
   the entities the last update changed get their carries computed again,
   and only the carry groups whose members' partial carries changed are
   folded again.  Once every component is an int in [0, INT64_MAX] again,
   the stretch goes back to the int64 loop.  So run() stops only at a fixed
   point or at the limit.  Each call works in scratch rows of its own: a
   PyNumber_* call on an int subclass, or any allocation, may run Python
   code that calls run() again.

   Rows share what repeats, by one rule on both paths: a partial carry equal
   to the previous update's is its object, and each common carry is the
   partials tuple's object of its value, its own or, for a carry the fold
   lowered, that of the group member whose partial the fold took.  A
   next-state component the update does not touch keeps its object; the
   int64 loop, which computes every component, keeps it wherever the value
   is unchanged.  Only other values are new ints.  The int64 loop shares
   only exact ints, so an int subclass instance in its start stays in the
   start's row.

   Every tuple of exact ints is born untracked by the cyclic garbage
   collector, the start state included, and so is each (state, partials,
   common) row of three such tuples: a tuple of exact ints can never be part
   of a cycle.  CPython untracks such a tuple itself, but only at the first
   collection that walks it, and on a wide state that walk costs more than
   the update.

   entries(cls, k, rows) builds simulate.run's trace entries from a stretch
   of rows.  An entry of frozen TraceStep holds an int and three tuples;
   when the tuples are untracked tuples of exact ints, the entry can never
   be part of a cycle either, and it is untracked too.

   An Enactor(operators, state) enacts operational.resolve(spec)'s
   operators literally in int64 and checks the matrix route's stretches
   against its own updates; its section says how. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>           /* T_OBJECT_EX */
#include <stdint.h>
#include <string.h>

_Static_assert(sizeof(long long) == sizeof(int64_t), "long long must be 64 bits");

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
    PyObject *py;                   /* a tuple of the m radices, then the
                                       coefficients, made on the first
                                       big-integer update */
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
    PyObject *py;

    if (self->py)
        return 0;
    if (!(py = PyTuple_New(self->m + self->nedges)))
        return -1;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(py); i++) {
        PyObject *v = PyLong_FromLongLong(i < self->m ? self->n[i] : self->coeff[i - self->m]);
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

/* A new untracked tuple of the m values in row, by the one sharing rule:
   item i is the previous row's item, was's item i, when its value old[i]
   equals row[i] and it is an exact int, and a fresh int otherwise (every
   item when was is NULL).  Each item is thus an exact int. */
static PyObject *
shared_ints(const int64_t *row, PyObject *was, const int64_t *old, Py_ssize_t m)
{
    PyObject *out = PyTuple_New(m);
    for (Py_ssize_t i = 0; out && i < m; i++) {
        PyObject *v = was ? PyTuple_GET_ITEM(was, i) : NULL;
        if (v && row[i] == old[i] && PyLong_CheckExact(v))
            Py_INCREF(v);
        else if (!(v = PyLong_FromLongLong(row[i]))) {
            Py_CLEAR(out);
            break;
        }
        PyTuple_SET_ITEM(out, i, v);
    }
    if (out)
        PyObject_GC_UnTrack(out);
    return out;
}

/* A new untracked tuple of the common carries pc, each the object the
   partials tuple pt holds for its value: its own item, or for a carry the
   fold lowered, the item of the group's member the fold took. */
static PyObject *
common_ints(const PlanKernel *self, PyObject *pt, const int64_t *p, const int64_t *pc,
            const int64_t *low)
{
    PyObject *out = PyTuple_New(self->m);
    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < self->m; i++) {
        Py_ssize_t at = pc[i] == p[i] ? i : low[self->group_of[i]];
        PyTuple_SET_ITEM(out, i, Py_NewRef(PyTuple_GET_ITEM(pt, at)));
    }
    PyObject_GC_UnTrack(out);
    return out;
}

/* A new tuple of the m objects in row, untracked when all are exact ints. */
static PyObject *
copy_tuple(PyObject *const *row, Py_ssize_t m)
{
    PyObject *out = PyTuple_New(m);
    int ints = 1;

    if (!out)
        return NULL;
    for (Py_ssize_t i = 0; i < m; i++) {
        ints &= PyLong_CheckExact(row[i]);
        PyTuple_SET_ITEM(out, i, Py_NewRef(row[i]));
    }
    if (ints)
        PyObject_GC_UnTrack(out);
    return out;
}

/* Append a (head, partials, common) row to rows, untracked when none of
   the three is tracked; -1 with an exception set.  It takes over the three
   references, any of which may be NULL after a failed allocation. */
static int
append_row(PyObject *rows, PyObject *head, PyObject *pt, PyObject *pct)
{
    PyObject *row = NULL;
    int rc = -1;

    if (head && pt && pct && (row = PyTuple_New(3))) {
        if (!PyObject_GC_IsTracked(head) && !PyObject_GC_IsTracked(pt)
            && !PyObject_GC_IsTracked(pct))
            PyObject_GC_UnTrack(row);
        PyTuple_SET_ITEM(row, 0, head);
        PyTuple_SET_ITEM(row, 1, pt);
        PyTuple_SET_ITEM(row, 2, pct);
        rc = PyList_Append(rows, row);
        Py_DECREF(row);
        return rc;
    }
    Py_XDECREF(head);
    Py_XDECREF(pt);
    Py_XDECREF(pct);
    return rc;
}

/* Append rows from *cur in int64 until limit rows are taken (1), at a fixed
   point (0), or before an update int64 cannot hold (2); -1 on error.  *cur
   becomes the state to go on from, NULL after an error.  scr holds five
   rows of m and one of ngroups.

   Each row shares what repeats: a next-state component equal to the
   previous state's is that object, a partial carry equal to the previous
   update's is its object, and every common carry is an object of the
   partials tuple; only other values are fresh ints. */
static int
run_int64(const PlanKernel *self, int64_t *scr, PyObject **cur, PyObject *rows,
          Py_ssize_t limit)
{
    const Py_ssize_t m = self->m;
    int64_t *s = scr, *p = s + m, *pc = p + m, *nxt = pc + m, *was = nxt + m, *low = was + m;
    PyObject *pt = NULL;            /* the last row's partials, was in int64 */
    int fits = 1, rc = 1;

    for (Py_ssize_t i = 0; i < m && fits; i++)
        fits = fits_int64(PyTuple_GET_ITEM(*cur, i), &s[i]);
    for (Py_ssize_t taken = 0; taken < limit; taken++) {
        PyObject *pct, *head = *cur;
        int moved = 0;

        if (!fits || update(self, s, p, pc, nxt, low) < 0) {
            rc = 2;
            break;
        }
        *cur = shared_ints(nxt, head, s, m);
        Py_XSETREF(pt, shared_ints(p, pt, was, m));
        /* the common tuple is the partials' wherever no group lowers a carry */
        pct = pt && memcmp(p, pc, m * sizeof *p) ? common_ints(self, pt, p, pc, low) : Py_XNewRef(pt);
        if (append_row(rows, head, Py_XNewRef(pt), pct) < 0 || !*cur) {
            rc = -1;
            break;
        }
        for (Py_ssize_t i = 0; i < m; i++)
            moved |= pc[i] != 0;
        if (!moved) {
            rc = 0;
            break;
        }
        int64_t *t = s;
        s = nxt;
        nxt = t;
        t = was;
        was = p;
        p = t;
        for (Py_ssize_t i = 0; i < m && fits; i++)
            fits = s[i] >= 0;
    }
    Py_XDECREF(pt);
    return rc;
}

/* A big-integer stretch's working rows, of m entries unless marked. */
typedef struct {
    PyObject **s, **p, **pc;        /* state, partial and common carries */
    Py_ssize_t *touched, ntouched;  /* entities the last update changed */
    Py_ssize_t *firing, nfiring;    /* entities whose common carry is nonzero */
    Py_ssize_t *fire_at;            /* an entity's place in firing, or -1 */
    Py_ssize_t *dirty, ndirty;      /* ngroups: groups to fold again */
    char *is_touched, *is_dirty;    /* membership of touched, of dirty */
    char *wide;                     /* not an int in [0, INT64_MAX] */
} Frontier;

static void
touch(Frontier *f, Py_ssize_t j)
{
    if (!f->is_touched[j]) {
        f->is_touched[j] = 1;
        f->touched[f->ntouched++] = j;
    }
}

/* *slot = op(*slot, c * k); -1 with an exception set. */
static int
credit(PyObject **slot, PyObject *c, PyObject *k, binaryfunc op)
{
    PyObject *t = PyNumber_Multiply(c, k), *v;
    if (!t)
        return -1;
    v = op(*slot, t);
    Py_DECREF(t);
    if (!v)
        return -1;
    Py_SETREF(*slot, v);
    return 0;
}

/* pc[j] = q, and j fires when q is true; -1 with an exception set. */
static int
set_common(Frontier *f, Py_ssize_t j, PyObject *q)
{
    int t = PyObject_IsTrue(q);
    if (t < 0)
        return -1;
    Py_SETREF(f->pc[j], Py_NewRef(q));
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
frontier_carries(const PlanKernel *self, Frontier *f)
{
    PyObject **p = f->p;

    f->ndirty = 0;
    for (Py_ssize_t k = 0; k < f->ntouched; k++) {
        Py_ssize_t j = f->touched[k], g = self->group_of[j];
        PyObject *q;
        int changed;

        if (!self->n[j])
            continue;
        if (!(q = PyNumber_FloorDivide(f->s[j], PyTuple_GET_ITEM(self->py, j))))
            return -1;
        if ((changed = PyObject_RichCompareBool(q, p[j], Py_NE)) <= 0) {
            Py_DECREF(q);
            if (changed < 0)
                return -1;
            continue;
        }
        Py_SETREF(p[j], q);
        if (g < 0) {
            if (set_common(f, j, q) < 0)
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
            if (set_common(f, *x, low) < 0)
                return -1;
    }
    return 0;
}

/* The update's removals and credits by the entities that fire, into s; -1
   with an exception set.  The entities it changes become the touched ones. */
static int
frontier_credits(const PlanKernel *self, Frontier *f)
{
    for (Py_ssize_t k = 0; k < f->ntouched; k++)
        f->is_touched[f->touched[k]] = 0;
    f->ntouched = 0;
    for (Py_ssize_t k = 0; k < f->nfiring; k++) {
        Py_ssize_t i = f->firing[k];
        PyObject *c = f->pc[i];

        if (credit(&f->s[i], c, PyTuple_GET_ITEM(self->py, i), PyNumber_InPlaceSubtract) < 0)
            return -1;
        touch(f, i);
        for (int64_t e = self->first_out[i]; e >= 0; e = self->next_out[e]) {
            PyObject *coeff = PyTuple_GET_ITEM(self->py, self->m + e);
            if (credit(&f->s[self->dst[e]], c, coeff, PyNumber_InPlaceAdd) < 0)
                return -1;
            touch(f, self->dst[e]);
        }
    }
    return 0;
}

/* 1 when a group member's common carry is not equal to its partial carry;
   every other entity's two carries are one object.  -1 with an exception
   set. */
static int
carries_differ(const PlanKernel *self, const Frontier *f)
{
    for (int64_t j = 0; j < self->grp_off[self->ngroups]; j++) {
        int64_t x = self->grp_members[j];
        int eq;
        if (f->p[x] != f->pc[x] && (eq = PyObject_RichCompareBool(f->p[x], f->pc[x], Py_EQ)) <= 0)
            return eq < 0 ? -1 : 1;
    }
    return 0;
}

/* Append rows from *cur in Python objects, the frontier way, until limit
   rows are taken (1), at a fixed point (0), or once every component fits
   in int64 after at least one update (2); -1 on error.  *cur becomes the
   state to go on from, NULL after an error, and *wide the count of the
   start's components outside int64. */
static int
run_big(PlanKernel *self, PyObject **cur, PyObject *rows, Py_ssize_t limit,
        Py_ssize_t *wide)
{
    const Py_ssize_t m = self->m, ng = self->ngroups;
    PyObject *zero = NULL;
    Py_ssize_t i, taken = 0, left = 0;
    Frontier f;
    char *block;
    int stop = -1;
    int64_t v;

    if (load_py_ints(self) < 0)
        goto fail;
    if (!(block = PyMem_Calloc(1, 3 * m * sizeof(PyObject *)
                                  + (3 * m + ng) * sizeof(Py_ssize_t) + 2 * m + ng + 1))) {
        PyErr_NoMemory();
        goto fail;
    }
    f.s = (PyObject **)block;
    f.p = f.s + m;
    f.pc = f.p + m;
    f.touched = (Py_ssize_t *)(f.pc + m);
    f.firing = f.touched + m;
    f.fire_at = f.firing + m;
    f.dirty = f.fire_at + m;
    f.is_touched = (char *)(f.dirty + ng);
    f.is_dirty = f.is_touched + m;
    f.wide = f.is_dirty + ng;
    f.ntouched = f.nfiring = 0;
    if (!(zero = PyLong_FromLong(0)))
        goto done;
    for (i = 0; i < m; i++) {
        f.s[i] = Py_NewRef(PyTuple_GET_ITEM(*cur, i));
        f.p[i] = Py_NewRef(zero);
        f.pc[i] = Py_NewRef(zero);
        touch(&f, i);
        f.fire_at[i] = -1;
        f.wide[i] = !fits_int64(f.s[i], &v);
        left += f.wide[i];
    }
    *wide = left;
    for (;;) {
        PyObject *pt, *pct = NULL;
        int differ;

        if (frontier_carries(self, &f) < 0 || (differ = carries_differ(self, &f)) < 0)
            break;
        if ((pt = copy_tuple(f.p, m)))
            pct = differ ? copy_tuple(f.pc, m) : Py_NewRef(pt);
        if (append_row(rows, Py_NewRef(*cur), pt, pct) < 0)
            break;
        if (!f.nfiring) {
            stop = 0;
            break;
        }
        if (frontier_credits(self, &f) < 0)
            break;
        Py_SETREF(*cur, copy_tuple(f.s, m));
        if (!*cur)
            break;
        if (++taken == limit) {
            stop = 1;
            break;
        }
        for (Py_ssize_t k = 0; k < f.ntouched; k++) {
            Py_ssize_t j = f.touched[k];
            char b = !fits_int64(f.s[j], &v);
            left += b - f.wide[j];
            f.wide[j] = b;
        }
        if (!left) {
            stop = 2;
            break;
        }
    }
done:
    for (i = 0; i < m; i++) {
        Py_XDECREF(f.s[i]);
        Py_XDECREF(f.p[i]);
        Py_XDECREF(f.pc[i]);
    }
    Py_XDECREF(zero);
    PyMem_Free(block);
    if (stop >= 0)
        return stop;
fail:
    Py_CLEAR(*cur);
    return -1;
}

static PyObject *
PlanKernel_run(PlanKernel *self, PyObject *args)
{
    PyObject *values, *stretches = Py_None, *cur = NULL, *rows = NULL, *out = NULL;
    Py_ssize_t limit;
    int64_t *scr = NULL;
    int stop;

    if (!PyArg_ParseTuple(args, "On|O:run", &values, &limit, &stretches))
        return NULL;
    if (limit < 0) {
        PyErr_SetString(PyExc_ValueError, "limit must be >= 0");
        return NULL;
    }
    if (stretches != Py_None && !PyList_Check(stretches)) {
        PyErr_SetString(PyExc_TypeError, "stretches must be a list or None");
        return NULL;
    }
    if (!(cur = state_tuple(self, values)) || !(rows = PyList_New(0)))
        goto done;
    untrack_ints(cur);
    /* run_int64's scratch rows, for this call only */
    if (!(scr = PyMem_Malloc((5 * self->m + self->ngroups + 1) * sizeof(int64_t)))) {
        PyErr_NoMemory();
        goto done;
    }
    while ((stop = run_int64(self, scr, &cur, rows, limit - PyList_GET_SIZE(rows))) == 2) {
        Py_ssize_t before = PyList_GET_SIZE(rows), wide = 0;
        if ((stop = run_big(self, &cur, rows, limit - before, &wide)) < 0)
            goto done;
        if (stretches != Py_None) {
            PyObject *record = Py_BuildValue("(nni)", wide, PyList_GET_SIZE(rows) - before, stop);
            if (!record || PyList_Append(stretches, record) < 0) {
                Py_XDECREF(record);
                goto done;
            }
            Py_DECREF(record);
        }
        if (stop != 2)
            break;
    }
    if (stop < 0)
        goto done;
    if ((out = PyTuple_New(3))) {
        PyObject *code = PyLong_FromLong(stop);
        if (!code) {
            Py_CLEAR(out);
            goto done;
        }
        PyTuple_SET_ITEM(out, 0, rows);
        PyTuple_SET_ITEM(out, 1, cur);
        PyTuple_SET_ITEM(out, 2, code);
        rows = cur = NULL;
    }
done:
    PyMem_Free(scr);
    Py_XDECREF(rows);
    Py_XDECREF(cur);
    return out;
}

static PyMethodDef PlanKernel_methods[] = {
    {"run", (PyCFunction)PlanKernel_run, METH_VARARGS,
     "run(state, limit, stretches=None) -> (rows, last, stop): at most `limit`\n"
     "updates, in int64 while it holds them and in exact ints past it.\n\n"
     "rows holds one (state, partials, common) tuple per update taken; each\n"
     "row's state is the previous update's next state, the same object.\n"
     "last is the state to continue from.  stop is 0 at a fixed point (the\n"
     "last row's common carries are all zero) and 1 when `limit` rows were\n"
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

/* ======== Trace entries ======== */

/* An entry class: the offsets of its k, state, partials and common slots,
   read off its member descriptors, and whether its instances may be
   untracked, which needs a class whose instances hold nothing but slots. */
typedef struct {
    PyTypeObject *cls;
    Py_ssize_t off[4];
    int untrack;
} EntryClass;

/* The class entries() was last given, a strong reference, so that its
   descriptors are looked up once. */
static EntryClass last_class;

#define ENTRY_SLOT(ec, entry, i) (*(PyObject **)((char *)(entry) + (ec).off[i]))

/* Fill *ec with cls and a new reference to it; -1 with TypeError when cls
   is not a class with the four slots.  Each call works on its own copy,
   because allocating may run Python code that calls entries() again. */
static int
load_entry_class(PyObject *cls, EntryClass *ec)
{
    static const char *const names[4] = {"k", "state", "partials", "common"};
    PyTypeObject *type = (PyTypeObject *)cls, *old;
    EntryClass found = {type, {0}, 0};

    if (type == last_class.cls) {
        *ec = last_class;
        Py_INCREF(type);
        return 0;
    }
    if (!PyType_Check(cls)) {
        PyErr_Format(PyExc_TypeError, "entries() needs a class, not %.100s",
                     Py_TYPE(cls)->tp_name);
        return -1;
    }
    for (int i = 0; i < 4; i++) {
        PyObject *name = PyUnicode_InternFromString(names[i]), *descr;
        if (!name)
            return -1;
        descr = _PyType_Lookup(type, name);  /* borrowed */
        Py_DECREF(name);
        /* a writable object slot of a class this one derives from */
        if (!descr || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
            || ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX
            || ((PyMemberDescrObject *)descr)->d_member->flags != 0
            || !PyType_IsSubtype(type, PyDescr_TYPE(descr))) {
            PyErr_Format(PyExc_TypeError, "%.100s has no slot '%s'", type->tp_name, names[i]);
            return -1;
        }
        found.off[i] = ((PyMemberDescrObject *)descr)->d_member->offset;
    }
    found.untrack = PyType_IS_GC(type) && type->tp_dictoffset == 0;
    *ec = found;
    Py_INCREF(type);                /* ec's reference */
    Py_INCREF(type);                /* the cache's */
    old = last_class.cls;
    last_class = found;
    Py_XDECREF(old);                /* last: it may run Python code */
    return 0;
}

/* 1 when row's items are three untracked exact tuples. */
static int
untracked_rows(PyObject *row)
{
    for (Py_ssize_t i = 0; i < 3; i++) {
        PyObject *t = PyTuple_GET_ITEM(row, i);
        if (!PyTuple_CheckExact(t) || PyObject_GC_IsTracked(t))
            return 0;
    }
    return 1;
}

static PyObject *
stepcore_entries(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *rows = NULL, *out = NULL;
    Py_ssize_t k, i, n;
    EntryClass ec;

    (void)module;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "entries() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (load_entry_class(args[0], &ec) < 0)
        return NULL;
    if ((k = PyLong_AsSsize_t(args[1])) == -1 && PyErr_Occurred())
        goto fail;
    /* a tuple, because allocating may run Python code that could change a list */
    if (!(rows = PySequence_Tuple(args[2])))
        goto fail;
    n = PyTuple_GET_SIZE(rows);
    if (k > PY_SSIZE_T_MAX - n) {
        PyErr_SetString(PyExc_OverflowError, "entries() step count overflows");
        goto fail;
    }
    if (!(out = PyList_New(n)))
        goto fail;
    for (i = 0; i < n; i++) {
        PyObject *row = PyTuple_GET_ITEM(rows, i), *entry;
        if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
            PyErr_SetString(PyExc_TypeError,
                            "each row must be a (state, partials, common) tuple");
            goto fail;
        }
        if (!(entry = ec.cls->tp_alloc(ec.cls, 0)))
            goto fail;
        PyList_SET_ITEM(out, i, entry);
        if (!(ENTRY_SLOT(ec, entry, 0) = PyLong_FromSsize_t(k + i)))
            goto fail;
        for (int j = 1; j < 4; j++)
            ENTRY_SLOT(ec, entry, j) = Py_NewRef(PyTuple_GET_ITEM(row, j - 1));
        if (ec.untrack && untracked_rows(row))
            PyObject_GC_UnTrack(entry);
    }
    Py_DECREF(rows);
    Py_DECREF(ec.cls);
    return out;
fail:
    Py_XDECREF(out);
    Py_XDECREF(rows);
    Py_DECREF(ec.cls);
    return NULL;
}

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

   It holds its state in int64 from one call to the next.  send((rows,
   last)) takes one update per row and compares each in full with the
   matrix route's stretch -- next state, partial and common carries -- and
   returns what operational.enactor's send((rows, last)) returns: None when
   all match, else (i, (next, partials, common)) for the first mismatch,
   which ends the enactor's use.  Where an update would leave int64, or a
   value it is compared with is not an exact int, it returns the row's
   index i instead: it then holds the state update i starts from (its state
   attribute), with every operator to enact next, and the caller checks the
   rest of the stretch with operational.enactor.  A start that is not all
   exact ints in int64 is handed back at row 0.

   No Python code runs while the rows are compared, so they cannot change
   meanwhile: every shape is checked first, an exact int is read without
   calling into Python, and nothing is allocated until the result. */

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

    self->block = PyMem_Calloc(2 * (nops + 1) + 3 * count[0] + 2 * count[1] + m + 1 + 4 * m
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

/* One update of cur into s, p and pc by the dirty operators, marking the
   next update's; -1 when a value would leave int64. */
static int
enactor_update(Enactor *self)
{
    int64_t *cur = self->cur, *s = self->s, *p = self->p, *pc = self->pc;

    for (Py_ssize_t d = 0; d < self->ndirty; d++) {
        int64_t o = self->dirty[d], lo = self->in_off[o], hi = self->in_off[o + 1], c = 0, t, j;

        for (j = lo; j < hi; j++) {
            int64_t x = cur[self->in_at[j]], n = self->in_n[j];
            int64_t q = p[self->in_at[j]] = x / n - (x % n < 0);   /* floor, as n >= 1 */
            if (j == lo || q < c)
                c = q;
        }
        for (j = lo; j < hi; j++)
            pc[self->in_at[j]] = c;
        if (!c)
            continue;
        for (j = lo; j < hi; j++)
            if (__builtin_mul_overflow(c, self->in_n[j], &t)
                || __builtin_sub_overflow(s[self->in_at[j]], t, &s[self->in_at[j]]))
                return -1;
        for (j = self->out_off[o]; j < self->out_off[o + 1]; j++)
            if (__builtin_mul_overflow(c, self->out_k[j], &t)
                || __builtin_add_overflow(s[self->out_at[j]], t, &s[self->out_at[j]]))
                return -1;
        enactor_mark(self, self->in_at, lo, hi);
        enactor_mark(self, self->out_at, self->out_off[o], self->out_off[o + 1]);
    }
    return 0;
}

/* Go back to the state the update started from, with every operator to
   enact in the next one. */
static void
enactor_rewind(Enactor *self)
{
    memcpy(self->s, self->cur, self->m * sizeof(int64_t));
    for (Py_ssize_t k = 0; k < self->nmarked; k++)
        self->is_marked[self->marked[k]] = 0;
    self->nmarked = 0;
    for (Py_ssize_t o = 0; o < self->nops; o++)
        self->dirty[o] = o;
    self->ndirty = self->nops;
}

/* The marked operators become the dirty ones, and s the state. */
static void
enactor_commit(Enactor *self)
{
    int64_t *t = self->dirty;

    if (self->nmarked)
        memcpy(self->cur, self->s, self->m * sizeof(int64_t));
    self->dirty = self->marked;
    self->marked = t;
    self->ndirty = self->nmarked;
    self->nmarked = 0;
    for (Py_ssize_t k = 0; k < self->ndirty; k++)
        self->is_marked[self->dirty[k]] = 0;
}

/* 1 when the items of the tuple t equal the m values, 0 when one differs,
   -1 at an item that is not an exact int before any difference. */
static int
enactor_equal(const int64_t *values, PyObject *t, Py_ssize_t m)
{
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *v = PyTuple_GET_ITEM(t, i);
        int overflow;
        if (!PyLong_CheckExact(v))
            return -1;
        if (PyLong_AsLongLongAndOverflow(v, &overflow) != values[i] || overflow)
            return 0;
    }
    return 1;
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

static PyObject *
Enactor_send(Enactor *self, PyObject *job)
{
    PyObject *rows, *last, *out = NULL;
    Py_ssize_t n, j, k;
    const Py_ssize_t m = self->m;

    if (!PyTuple_Check(job) || PyTuple_GET_SIZE(job) != 2) {
        PyErr_SetString(PyExc_TypeError, "send() takes a (rows, last) pair");
        return NULL;
    }
    if (!(rows = PySequence_Fast(PyTuple_GET_ITEM(job, 0), "rows must be a sequence")))
        return NULL;
    n = PySequence_Fast_GET_SIZE(rows);
    if (enactor_shape(last = PyTuple_GET_ITEM(job, 1), m) < 0)
        goto done;
    for (j = 0; j < n; j++) {
        PyObject *row = PySequence_Fast_GET_ITEM(rows, j);
        if (!PyTuple_Check(row) || PyTuple_GET_SIZE(row) != 3) {
            PyErr_SetString(PyExc_TypeError, "each row must be a (state, partials, common) tuple");
            goto done;
        }
        for (k = 0; k < 3; k++)
            if (enactor_shape(PyTuple_GET_ITEM(row, k), m) < 0)
                goto done;
    }
    for (j = 0; j < n; j++) {
        PyObject *row = PySequence_Fast_GET_ITEM(rows, j);
        PyObject *want = j + 1 < n ? PyTuple_GET_ITEM(PySequence_Fast_GET_ITEM(rows, j + 1), 0) : last;
        PyObject *mp = PyTuple_GET_ITEM(row, 1), *mpc = PyTuple_GET_ITEM(row, 2);
        int same = 0, eq = -1;

        if (!self->start && enactor_update(self) == 0) {
            same = !self->grouped || !memcmp(self->p, self->pc, m * sizeof(int64_t));
            /* common carries that are the partials' own tuple on both sides
               are equal when the partials are */
            if ((eq = enactor_equal(self->s, want, m)) == 1
                && (eq = enactor_equal(self->p, mp, m)) == 1 && !(same && mpc == mp))
                eq = enactor_equal(self->pc, mpc, m);
        }
        if (eq < 0) {
            enactor_rewind(self);
            out = PyLong_FromSsize_t(j);
            goto done;
        }
        if (!eq) {
            out = enactor_mismatch(self, j, same);
            goto done;
        }
        enactor_commit(self);
    }
    out = Py_NewRef(Py_None);
done:
    Py_DECREF(rows);
    return out;
}

static PyObject *
Enactor_state(Enactor *self, void *closure)
{
    (void)closure;
    return self->start ? Py_NewRef(self->start) : enactor_tuple(self->cur, self->m);
}

static PyMethodDef Enactor_methods[] = {
    {"send", (PyCFunction)Enactor_send, METH_O,
     "send((rows, last)) -> None | (i, (next, partials, common)) | i: check a\n"
     "stretch of the matrix route, one update per row, each compared in full:\n"
     "its next state with the next row's state (last after the last row), its\n"
     "carries with the row's.  None when all match; the first mismatch, with\n"
     "this route's result there; or the index i of the row where an update\n"
     "leaves int64 or meets a value that is not an exact int, the state then\n"
     "being that update's start.  Shapes are checked first: TypeError or\n"
     "ValueError for a row that is not three tuples of the state's length."},
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

/* ======== The module ======== */

static PyMethodDef stepcore_methods[] = {
    {"entries", (PyCFunction)(void (*)(void))stepcore_entries, METH_FASTCALL,
     "entries(cls, k, rows) -> list: [cls(i, s, p, pc) for i, (s, p, pc) in\n"
     "enumerate(rows, k)], with the slots filled and neither __new__ nor\n"
     "__init__ called.  cls must have object slots k, state, partials and\n"
     "common.  An entry is untracked by the garbage collector when its class\n"
     "has no __dict__ and its row holds three untracked exact tuples."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef stepcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stepcore",
    .m_doc = "Overflow-checked 64-bit step kernel, and the lock-step enactor.",
    .m_size = -1,
    .m_methods = stepcore_methods,
};

PyMODINIT_FUNC
PyInit__stepcore(void)
{
    PyObject *mod;
    if (PyType_Ready(&PlanKernelType) < 0 || PyType_Ready(&EnactorType) < 0)
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
