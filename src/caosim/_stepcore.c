/* 64-bit step kernel.

   A PlanKernel freezes one update plan -- per-entity radices, carry groups
   and conversion edges, all given by entity index -- into C arrays at
   construction.  Construction raises ValueError for a plan whose indices
   fall outside the state or whose radices are negative, and OverflowError
   for one whose radices or coefficients do not fit in int64.

   Its one method, run(state, limit), takes up to `limit` updates in a row
   without returning to Python in between: the state stays in int64 from one
   update to the next, and only the tuples each update records are built.
   It stops early at a fixed point (every common carry zero) and before any
   update it cannot take in int64; kernel.advance takes that update with
   unbounded Python integers and calls run again.

   Every multiplication and addition that could leave int64 range is
   checked, so run() stops instead of wrapping.  A state component that is
   negative, not an int, or outside int64 stops it the same way; run()
   checks every state it is about to step, because a plan with negative
   coefficients can drive a component below zero.  Division needs no check,
   because radices and state components are both non-negative by then.

   Each call works in scratch rows of its own, so a call that allocates
   (and may thereby run Python code) cannot clobber another call's rows.

   Every state and carry tuple is born untracked by the cyclic garbage
   collector, and so is the start state when it holds only exact ints: a
   tuple of exact ints refers to nothing that can refer back to it, so it
   can never be part of a cycle.  CPython untracks such a tuple itself, but
   only at the first collection that walks it, and on a wide state that
   walk costs more than the update.  So is each (state, partials, common)
   row whose state is untracked.  row(values) does the same for the rows
   kernel._frontier builds in Python.

   entries(cls, k, rows) builds simulate.run's trace entries from a stretch
   of rows.  An entry of frozen TraceStep holds an int and three tuples;
   when the tuples are untracked tuples of exact ints, the entry can never
   be part of a cycle either, and it is untracked too. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>           /* T_OBJECT_EX */
#include <stdint.h>
#include <string.h>

_Static_assert(sizeof(long long) == sizeof(int64_t), "long long must be 64 bits");

typedef struct {
    PyObject_HEAD
    Py_ssize_t m, ngroups, nedges;
    int64_t *n;                     /* m radices, 0 where an entity feeds nothing */
    int64_t *grp_off;               /* ngroups + 1 offsets into grp_members */
    int64_t *grp_members;
    int64_t *src, *dst, *coeff;     /* one entry per edge */
    int64_t *block;                 /* owns every row above */
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

    self->block = PyMem_Calloc(m + self->ngroups + 1 + total + 3 * self->nedges,
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
    rc = 0;
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
    PyMem_Free(self->block);
    Py_TYPE(self)->tp_free((PyObject *)self);
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

/* Copy a state tuple into row: 1 when every component is an int in
   [0, INT64_MAX], 0 when one is not.  Ints only, because converting
   anything else may run Python code. */
static int
read_state(PyObject *state, Py_ssize_t m, int64_t *row)
{
    for (Py_ssize_t i = 0; i < m; i++) {
        PyObject *item = PyTuple_GET_ITEM(state, i);
        int overflow = 0;
        if (!PyLong_Check(item))
            return 0;
        row[i] = PyLong_AsLongLongAndOverflow(item, &overflow);
        if (overflow || row[i] < 0)
            return 0;
    }
    return 1;
}

/* One update of a non-negative state into nxt, with the partial and common
   carries in p and pc; -1 when a credit leaves int64. */
static int
update(const PlanKernel *self, const int64_t *state, int64_t *p, int64_t *pc,
       int64_t *nxt)
{
    const Py_ssize_t m = self->m;
    const int64_t *n = self->n;
    Py_ssize_t i, j, g, e;

    for (i = 0; i < m; i++)
        p[i] = pc[i] = n[i] > 0 ? state[i] / n[i] : 0;
    for (g = 0; g < self->ngroups; g++) {
        int64_t lo = INT64_MAX;
        for (j = self->grp_off[g]; j < self->grp_off[g + 1]; j++)
            if (p[self->grp_members[j]] < lo)
                lo = p[self->grp_members[j]];
        for (j = self->grp_off[g]; j < self->grp_off[g + 1]; j++)
            pc[self->grp_members[j]] = lo;
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

/* A new untracked tuple of fresh ints. */
static PyObject *
row_tuple(const int64_t *row, Py_ssize_t m)
{
    PyObject *out = PyTuple_New(m);
    for (Py_ssize_t i = 0; out && i < m; i++) {
        PyObject *v = PyLong_FromLongLong(row[i]);
        if (!v)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, v);
    }
    if (out)
        PyObject_GC_UnTrack(out);
    return out;
}

/* A new (head, partials, common) tuple, untracked when head is.  It takes
   over the reference to head, which may be NULL after a failed allocation.
   The common tuple is the partials' tuple when the two rows are equal, as
   they are wherever no carry group lowers a partial carry. */
static PyObject *
carry_row(PyObject *head, const int64_t *p, const int64_t *pc, Py_ssize_t m)
{
    PyObject *out = NULL, *pt = NULL, *pct = NULL;

    if (!head || !(pt = row_tuple(p, m)))
        goto fail;
    if (memcmp(p, pc, m * sizeof *p) == 0) {
        Py_INCREF(pt);
        pct = pt;
    }
    else if (!(pct = row_tuple(pc, m)))
        goto fail;
    if (!(out = PyTuple_New(3)))
        goto fail;
    if (!PyObject_GC_IsTracked(head))
        PyObject_GC_UnTrack(out);
    PyTuple_SET_ITEM(out, 0, head);
    PyTuple_SET_ITEM(out, 1, pt);
    PyTuple_SET_ITEM(out, 2, pct);
    return out;
fail:
    Py_XDECREF(head);
    Py_XDECREF(pt);
    Py_XDECREF(pct);
    return NULL;
}

static PyObject *
PlanKernel_run(PlanKernel *self, PyObject *args)
{
    const Py_ssize_t m = self->m;
    PyObject *values, *cur = NULL, *rows = NULL, *out = NULL;
    Py_ssize_t limit, taken, i;
    int64_t *scr = NULL;
    int stop = 1, fits;

    if (!PyArg_ParseTuple(args, "On:run", &values, &limit))
        return NULL;
    if (limit < 0) {
        PyErr_SetString(PyExc_ValueError, "limit must be >= 0");
        return NULL;
    }
    if (!(cur = state_tuple(self, values)) || !(rows = PyList_New(0)))
        goto done;
    untrack_ints(cur);
    /* four scratch rows of m int64 each, for this call only */
    if (!(scr = PyMem_Malloc((4 * m + 1) * sizeof(int64_t)))) {
        PyErr_NoMemory();
        goto done;
    }
    int64_t *s = scr, *p = s + m, *pc = p + m, *nxt = pc + m;
    fits = read_state(cur, m, s);
    for (taken = 0; taken < limit; taken++) {
        PyObject *next, *row;
        int moved = 0;

        if (!fits || update(self, s, p, pc, nxt) < 0) {
            stop = 2;
            break;
        }
        next = row_tuple(nxt, m);
        row = carry_row(cur, p, pc, m);  /* takes cur */
        cur = next;
        if (!next || !row || PyList_Append(rows, row) < 0) {
            Py_XDECREF(row);
            goto done;
        }
        Py_DECREF(row);
        for (i = 0; i < m; i++)
            moved |= pc[i] != 0;
        if (!moved) {
            stop = 0;
            break;
        }
        int64_t *t = s;
        s = nxt;
        nxt = t;
        for (i = 0; i < m && fits; i++)
            fits = s[i] >= 0;
    }
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
     "run(state, limit) -> (rows, last, stop): at most `limit` updates.\n\n"
     "rows holds one (state, partials, common) tuple per update taken; each\n"
     "row's state is the previous update's next state, the same object.\n"
     "last is the state to continue from.  stop is 0 at a fixed point (the\n"
     "last row's common carries are all zero), 1 when `limit` rows were\n"
     "taken, and 2 when the next update cannot be taken in int64: last then\n"
     "is the state that update starts from."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PlanKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "caosim._stepcore.PlanKernel",
    .tp_basicsize = sizeof(PlanKernel),
    .tp_dealloc = (destructor)PlanKernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "PlanKernel(n, groups, edges): one flattened update plan, "
              "ready to step int64 states a stretch of updates at a time.",
    .tp_methods = PlanKernel_methods,
    .tp_new = PlanKernel_new,
};

/* tuple(values) in one pass: the copy checks the items as it goes. */
static PyObject *
stepcore_row(PyObject *module, PyObject *values)
{
    PyObject *seq, *out;
    int ints = 1;

    (void)module;
    if (PyTuple_CheckExact(values)) {
        untrack_ints(values);
        Py_INCREF(values);
        return values;
    }
    if (!(seq = PySequence_Fast(values, "row() argument must be a sequence")))
        return NULL;
    /* nothing below runs Python code, so a list cannot change under us */
    if ((out = PyTuple_New(PySequence_Fast_GET_SIZE(seq)))) {
        PyObject **items = PySequence_Fast_ITEMS(seq);
        for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(out); i++) {
            ints &= PyLong_CheckExact(items[i]);
            Py_INCREF(items[i]);
            PyTuple_SET_ITEM(out, i, items[i]);
        }
        if (ints)
            PyObject_GC_UnTrack(out);
    }
    Py_DECREF(seq);
    return out;
}

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

static PyMethodDef stepcore_methods[] = {
    {"row", stepcore_row, METH_O,
     "row(values) -> tuple: tuple(values), untracked by the garbage collector\n"
     "when every item is an exact int."},
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
    .m_doc = "Overflow-checked 64-bit step kernel.",
    .m_size = -1,
    .m_methods = stepcore_methods,
};

PyMODINIT_FUNC
PyInit__stepcore(void)
{
    PyObject *mod;
    if (PyType_Ready(&PlanKernelType) < 0)
        return NULL;
    if (!(mod = PyModule_Create(&stepcore_module)))
        return NULL;
    Py_INCREF(&PlanKernelType);
    if (PyModule_AddObject(mod, "PlanKernel", (PyObject *)&PlanKernelType) < 0) {
        Py_DECREF(&PlanKernelType);
        Py_DECREF(mod);
        return NULL;
    }
    return mod;
}
