/* 64-bit step kernel.

   A PlanKernel freezes one update plan -- per-entity radices, carry groups
   and conversion edges, all given by entity index -- into C arrays at
   construction; each step() then only converts the state in and the results
   out.  Construction raises ValueError for a plan whose indices fall outside
   the state or whose radices are negative, and OverflowError for one whose
   radices or coefficients do not fit in int64.

   Every multiplication and addition that could leave int64 range is checked:
   step() answers None instead of wrapping, and the caller redoes that step
   with unbounded Python integers.  A state component that is negative, not
   an int, or outside int64 also answers None.  Division needs no check,
   because radices and state components are both non-negative by then.

   Scratch rows are reused between calls, so one instance must not be stepped
   from two threads at once. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

_Static_assert(sizeof(long long) == sizeof(int64_t), "long long must be 64 bits");

typedef struct {
    PyObject_HEAD
    Py_ssize_t m, ngroups, nedges;
    int64_t *n;                     /* m radices, 0 where an entity feeds nothing */
    int64_t *state, *p, *pc, *nxt;  /* scratch rows, m each */
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

    self->block = PyMem_Calloc(5 * m + self->ngroups + 1 + total + 3 * self->nedges,
                               sizeof(int64_t));
    if (!self->block) {
        PyErr_NoMemory();
        goto done;
    }
    self->n = self->block;
    self->state = self->n + m;
    self->p = self->state + m;
    self->pc = self->p + m;
    self->nxt = self->pc + m;
    self->grp_off = self->nxt + m;
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
    return out;
}

static PyObject *
PlanKernel_step(PlanKernel *self, PyObject *values)
{
    const Py_ssize_t m = self->m;
    int64_t *state = self->state, *p = self->p, *pc = self->pc, *nxt = self->nxt;
    const int64_t *n = self->n;
    Py_ssize_t i, j, g, e;
    int fits = 1;

    PyObject *seq = PySequence_Fast(values, "state must be a sequence");
    if (!seq)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != m) {
        PyErr_Format(PyExc_ValueError, "state has %zd components, plan has %zd",
                     PySequence_Fast_GET_SIZE(seq), m);
        Py_DECREF(seq);
        return NULL;
    }
    for (i = 0; i < m && fits; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(seq, i);
        int overflow = 0;
        /* ints only: converting anything else may run Python code */
        if (PyLong_Check(item))
            state[i] = PyLong_AsLongLongAndOverflow(item, &overflow);
        fits = PyLong_Check(item) && !overflow && state[i] >= 0;
    }
    Py_DECREF(seq);
    if (!fits)
        Py_RETURN_NONE;

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
            Py_RETURN_NONE;
    }

    PyObject *out = PyTuple_New(3);
    const int64_t *rows[3] = {nxt, p, pc};
    for (i = 0; out && i < 3; i++) {
        PyObject *t = row_tuple(rows[i], m);
        if (!t)
            Py_CLEAR(out);
        else
            PyTuple_SET_ITEM(out, i, t);
    }
    return out;
}

static PyMethodDef PlanKernel_methods[] = {
    {"step", (PyCFunction)PlanKernel_step, METH_O,
     "step(state) -> (next, partials, common) as int tuples, or None when the\n"
     "state or any intermediate value leaves int64 range."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject PlanKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "caosim._stepcore.PlanKernel",
    .tp_basicsize = sizeof(PlanKernel),
    .tp_dealloc = (destructor)PlanKernel_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "PlanKernel(n, groups, edges): one flattened update plan, "
              "ready to step int64 states.",
    .tp_methods = PlanKernel_methods,
    .tp_new = PlanKernel_new,
};

static struct PyModuleDef stepcore_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_stepcore",
    .m_doc = "Overflow-checked 64-bit step kernel.",
    .m_size = -1,
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
