/* Compiled scheduler backend for the DES kernel.
 *
 * NativeScheduler is a C binary heap honouring the same unique
 * ``(time, priority, seq)`` total order as ``HeapScheduler`` in
 * ``repro.sim.sched``, so its pop stream is identical to the reference
 * heap's (the ``scheduler`` entries of ``tests/test_pairs.py`` pin this).
 *
 * Entries keep the engine-visible shape — a 4-element Python list
 * ``[when, prio, seq, item]`` — because the run loop mutates
 * ``entry[3]`` in place (detach on dispatch, tombstone on cancel).  The
 * ordering key, however, is *cached in the C node* at push time
 * (``when`` as a double, ``prio`` as a long, ``seq`` as an unsigned
 * 64-bit int), so every heap comparison is three scalar compares — no
 * Python object comparisons, no list protocol, no refcount traffic.
 *
 * Cancellation is O(1): ``entry[3] = None`` plus a live-count decrement;
 * dead entries are dropped lazily when they surface at the heap root.
 * Cancelling an entry that is already a tombstone is a no-op, so the
 * live count never goes negative.
 *
 * The engine's seq counter is an unbounded monotone count starting at
 * zero; this backend accepts any seq in [0, 2**64) and raises
 * OverflowError beyond that (a run would need ~600 years of nanosecond
 * events to get there).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

typedef struct {
    double when;
    long prio;
    unsigned long long seq;
    PyObject *entry; /* owned reference to the [when, prio, seq, item] list */
} node_t;

typedef struct {
    PyObject_HEAD
    node_t *heap;
    Py_ssize_t size;     /* physical nodes, tombstones included */
    Py_ssize_t capacity;
    Py_ssize_t live;     /* non-tombstoned entries */
    long long cancels;
    Py_ssize_t peak;     /* high-water physical size (stats) */
} NativeScheduler;

/* -- heap primitives (pure C, no Python calls) ---------------------------- */

static inline int
node_lt(const node_t *a, const node_t *b)
{
    if (a->when != b->when)
        return a->when < b->when;
    if (a->prio != b->prio)
        return a->prio < b->prio;
    return a->seq < b->seq;
}

static void
sift_up(node_t *heap, Py_ssize_t pos)
{
    node_t item = heap[pos];
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!node_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

static void
sift_down(node_t *heap, Py_ssize_t n, Py_ssize_t pos)
{
    node_t item = heap[pos];
    Py_ssize_t child = 2 * pos + 1;
    while (child < n) {
        if (child + 1 < n && node_lt(&heap[child + 1], &heap[child]))
            child++;
        if (!node_lt(&heap[child], &item))
            break;
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
}

static int
ensure_capacity(NativeScheduler *self)
{
    if (self->size < self->capacity)
        return 0;
    Py_ssize_t cap = self->capacity ? self->capacity * 2 : 256;
    node_t *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(node_t));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = heap;
    self->capacity = cap;
    return 0;
}

/* -- methods -------------------------------------------------------------- */

static PyObject *
sched_push(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "push expects (when, prio, seq, item)");
        return NULL;
    }
    double when = PyFloat_AsDouble(args[0]);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(args[1]);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    unsigned long long seq = PyLong_AsUnsignedLongLong(args[2]);
    if (seq == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    if (ensure_capacity(self) < 0)
        return NULL;

    PyObject *entry = PyList_New(4);
    if (entry == NULL)
        return NULL;
    Py_INCREF(args[0]);
    PyList_SET_ITEM(entry, 0, args[0]);
    Py_INCREF(args[1]);
    PyList_SET_ITEM(entry, 1, args[1]);
    Py_INCREF(args[2]);
    PyList_SET_ITEM(entry, 2, args[2]);
    Py_INCREF(args[3]);
    PyList_SET_ITEM(entry, 3, args[3]);

    node_t *node = &self->heap[self->size];
    node->when = when;
    node->prio = prio;
    node->seq = seq;
    node->entry = entry;
    Py_INCREF(entry); /* the heap's reference; the return is the caller's */
    sift_up(self->heap, self->size);
    self->size++;
    self->live++;
    if (self->size > self->peak)
        self->peak = self->size;
    return entry;
}

static PyObject *
sched_cancel(NativeScheduler *self, PyObject *entry)
{
    if (!PyList_Check(entry) || PyList_GET_SIZE(entry) != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "cancel expects a scheduler entry (4-element list)");
        return NULL;
    }
    if (PyList_GET_ITEM(entry, 3) == Py_None)
        Py_RETURN_NONE; /* already a tombstone: nothing live to withdraw */
    /* Tombstone in place; the node surfaces and is dropped lazily. */
    Py_INCREF(Py_None);
    PyList_SetItem(entry, 3, Py_None);
    self->live--;
    self->cancels++;
    Py_RETURN_NONE;
}

static PyObject *
sched_pop(NativeScheduler *self, PyObject *Py_UNUSED(ignored))
{
    node_t *heap = self->heap;
    while (self->size > 0) {
        PyObject *entry = heap[0].entry;
        self->size--;
        if (self->size > 0) {
            heap[0] = heap[self->size];
            sift_down(heap, self->size, 0);
        }
        if (PyList_GET_ITEM(entry, 3) != Py_None) {
            self->live--;
            return entry; /* transfer the heap's reference to the caller */
        }
        Py_DECREF(entry); /* tombstone: drop, keep scanning */
    }
    Py_RETURN_NONE;
}

static PyObject *
sched_peek_time(NativeScheduler *self, PyObject *Py_UNUSED(ignored))
{
    node_t *heap = self->heap;
    while (self->size > 0) {
        PyObject *entry = heap[0].entry;
        if (PyList_GET_ITEM(entry, 3) != Py_None) {
            PyObject *when = PyList_GET_ITEM(entry, 0);
            Py_INCREF(when);
            return when;
        }
        self->size--;
        if (self->size > 0) {
            heap[0] = heap[self->size];
            sift_down(heap, self->size, 0);
        }
        Py_DECREF(entry);
    }
    Py_RETURN_NONE;
}

static PyObject *
sched_stats(NativeScheduler *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue(
        "{s:s, s:O, s:n, s:L, s:n, s:n}",
        "kind", "native",
        "compiled", Py_True,
        "live", self->live,
        "cancels", self->cancels,
        "pending", self->size,
        "peak", self->peak);
}

static Py_ssize_t
sched_len(NativeScheduler *self)
{
    return self->live;
}

/* -- type plumbing -------------------------------------------------------- */

static PyObject *
sched_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    NativeScheduler *self = (NativeScheduler *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->live = 0;
    self->cancels = 0;
    self->peak = 0;
    return (PyObject *)self;
}

static int
sched_traverse(NativeScheduler *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].entry);
    return 0;
}

static int
sched_clear(NativeScheduler *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    self->live = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].entry);
    return 0;
}

static void
sched_dealloc(NativeScheduler *self)
{
    PyObject_GC_UnTrack(self);
    sched_clear(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef sched_methods[] = {
    {"push", (PyCFunction)(void (*)(void))sched_push, METH_FASTCALL,
     "push(when, prio, seq, item) -> entry list [when, prio, seq, item]"},
    {"cancel", (PyCFunction)sched_cancel, METH_O,
     "cancel(entry): O(1) tombstone (entry[3] = None); no-op if already dead."},
    {"pop", (PyCFunction)sched_pop, METH_NOARGS,
     "pop() -> the minimum live entry, or None when empty."},
    {"peek_time", (PyCFunction)sched_peek_time, METH_NOARGS,
     "peek_time() -> time of the minimum live entry, or None."},
    {"stats", (PyCFunction)sched_stats, METH_NOARGS,
     "stats() -> {'kind': 'native', 'compiled': True, ...}"},
    {NULL, NULL, 0, NULL},
};

static PySequenceMethods sched_as_sequence = {
    .sq_length = (lenfunc)sched_len,
};

static PyTypeObject NativeSchedulerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._csched.NativeScheduler",
    .tp_doc = "Compiled (time, priority, seq) binary-heap event scheduler.",
    .tp_basicsize = sizeof(NativeScheduler),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = sched_new,
    .tp_dealloc = (destructor)sched_dealloc,
    .tp_traverse = (traverseproc)sched_traverse,
    .tp_clear = (inquiry)sched_clear,
    .tp_methods = sched_methods,
    .tp_as_sequence = &sched_as_sequence,
};

static struct PyModuleDef csched_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._csched",
    .m_doc = "Compiled scheduler backend (see repro.sim.sched for the contract).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__csched(void)
{
    if (PyType_Ready(&NativeSchedulerType) < 0)
        return NULL;
    /* Class-level constants mirroring HeapScheduler's. */
    if (PyDict_SetItemString(NativeSchedulerType.tp_dict, "kind",
                             PyUnicode_FromString("native")) < 0)
        return NULL;
    if (PyDict_SetItemString(NativeSchedulerType.tp_dict, "compiled",
                             Py_True) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&csched_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&NativeSchedulerType);
    if (PyModule_AddObject(m, "NativeScheduler",
                           (PyObject *)&NativeSchedulerType) < 0) {
        Py_DECREF(&NativeSchedulerType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
