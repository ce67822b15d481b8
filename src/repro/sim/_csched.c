/* Compiled scheduler backend for the DES kernel: the event heap, and
 * the run loop and pooled scheduling calls of the Simulator it serves.
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
 *
 * Compiled dispatch.  A Simulator binds its scheduler (``bind(sim)``):
 * the scheduler then keeps the simulator, its ``__dict__``, its ``_seq``
 * iterator and its two free lists (all visited by tp_traverse), and
 * serves five more calls:
 *
 * * ``dispatch(stop, horizon, limit)`` is ``Simulator._dispatch``, the
 *   run loop, step for step: pop, set ``_now``, detach ``entry[3]``,
 *   append to the trace sink, recycle ``_Callback``s and pooled
 *   ``Timeout``s up to the pool bound, fire an event's callbacks by the
 *   list's live length, raise an unwatched failed event's exception,
 *   stop on ``stop``, on the float ``horizon`` or after ``limit``
 *   events, and add the processed count to ``event_count`` on every
 *   exit;
 * * ``call_after``, ``call_at``, ``call_urgent`` and ``sleep`` are the
 *   Simulator methods of those names: the same checks, error messages,
 *   pool use, float sums and ``next(_seq)`` draws, in the same order.
 *
 * The Simulator's Python methods stay as the reference; the
 * ``dispatch`` entry of the pair registry holds the two equal.  The
 * kernel's classes are bound once by ``repro.sim.engine``
 * (``bind_kernel``): Event, Timeout and _Callback fields are read and
 * written at the offsets of their ``__slots__`` member descriptors.  An
 * Event subclass must not shadow those slot names; an item that is not
 * an Event or _Callback takes plain attribute access.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

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
    /* the bound Simulator (all NULL until bind) */
    PyObject *sim;
    PyObject *dict;      /* sim.__dict__: _now, event_count, _trace */
    PyObject *seq;       /* sim._seq */
    PyObject *cb_pool;   /* sim._callback_pool */
    PyObject *t_pool;    /* sim._timeout_pool */
} NativeScheduler;

/* -- the kernel's classes and slots (bind_kernel) ------------------------- */

enum { E_CALLBACKS, E_VALUE, E_OK, E_SCHEDULED, E_ENTRY, T_DELAY, T_POOLED,
       C_FN, C_ARGS, N_SLOTS };
static const char *const slot_names[N_SLOTS] = {
    "callbacks", "_value", "_ok", "_scheduled", "_entry", "delay", "_pooled",
    "fn", "args",
};

static struct {
    PyTypeObject *event, *timeout, *callback;
    PyObject *pending;    /* engine._PENDING */
    PyObject *time_error; /* repro.errors.SimTimeError */
    Py_ssize_t pool_max;
    Py_ssize_t offset[N_SLOTS];
    PyObject *name[N_SLOTS];
} K;

static PyObject *str_now, *str_event_count, *str_trace, *str_seq,
                *str_cb_pool, *str_t_pool, *str_name, *str_append;
static PyObject *prio_urgent, *prio_normal, *int_zero, *empty_tuple;

#define SLOT(obj, k) (*(PyObject **)((char *)(obj) + K.offset[k]))

/* obj.<slot k> (new reference): at the slot's offset when `fast`, else
 * (or when the slot is unset, to raise the AttributeError) by name. */
static inline PyObject *
get_slot(PyObject *obj, int fast, int k)
{
    if (fast && SLOT(obj, k) != NULL)
        return Py_NewRef(SLOT(obj, k));
    return PyObject_GetAttr(obj, K.name[k]);
}

static inline int
set_slot(PyObject *obj, int fast, int k, PyObject *value)
{
    if (fast) {
        Py_XSETREF(SLOT(obj, k), Py_NewRef(value));
        return 0;
    }
    return PyObject_SetAttr(obj, K.name[k], value);
}

/* bool(obj) with the two singletons answered inline; -1 on error */
static inline int
truth(PyObject *obj)
{
    if (obj == Py_True)
        return 1;
    if (obj == Py_False)
        return 0;
    return PyObject_IsTrue(obj);
}

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

/* Remove the root node (the caller owns its entry reference now). */
static PyObject *
take_root(NativeScheduler *self)
{
    PyObject *entry = self->heap[0].entry;
    self->size--;
    if (self->size > 0) {
        self->heap[0] = self->heap[self->size];
        sift_down(self->heap, self->size, 0);
    }
    return entry;
}

/* The minimum live node, tombstones above it dropped; NULL when empty. */
static node_t *
live_root(NativeScheduler *self)
{
    while (self->size > 0) {
        if (PyList_GET_ITEM(self->heap[0].entry, 3) != Py_None)
            return &self->heap[0];
        Py_DECREF(take_root(self));
    }
    return NULL;
}

/* Pop the minimum live entry (new reference); NULL when empty. */
static PyObject *
pop_live(NativeScheduler *self)
{
    if (live_root(self) == NULL)
        return NULL;
    self->live--;
    return take_root(self);
}

/* Push [when_obj, prio_obj, seq_obj, item]; returns the entry (new
 * reference).  The node caches the key as C scalars. */
static PyObject *
push_entry(NativeScheduler *self, PyObject *when_obj, PyObject *prio_obj,
           PyObject *seq_obj, PyObject *item)
{
    double when = PyFloat_AsDouble(when_obj);
    if (when == -1.0 && PyErr_Occurred())
        return NULL;
    long prio = PyLong_AsLong(prio_obj);
    if (prio == -1 && PyErr_Occurred())
        return NULL;
    unsigned long long seq = PyLong_AsUnsignedLongLong(seq_obj);
    if (seq == (unsigned long long)-1 && PyErr_Occurred())
        return NULL;
    if (ensure_capacity(self) < 0)
        return NULL;
    PyObject *entry = PyList_New(4);
    if (entry == NULL)
        return NULL;
    PyList_SET_ITEM(entry, 0, Py_NewRef(when_obj));
    PyList_SET_ITEM(entry, 1, Py_NewRef(prio_obj));
    PyList_SET_ITEM(entry, 2, Py_NewRef(seq_obj));
    PyList_SET_ITEM(entry, 3, Py_NewRef(item));

    node_t *node = &self->heap[self->size];
    node->when = when;
    node->prio = prio;
    node->seq = seq;
    node->entry = Py_NewRef(entry); /* the heap's; the return is the caller's */
    sift_up(self->heap, self->size);
    self->size++;
    self->live++;
    if (self->size > self->peak)
        self->peak = self->size;
    return entry;
}

/* -- heap methods ----------------------------------------------------------- */

static PyObject *
sched_push(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "push expects (when, prio, seq, item)");
        return NULL;
    }
    return push_entry(self, args[0], args[1], args[2], args[3]);
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
    PyObject *entry = pop_live(self);
    if (entry == NULL)
        Py_RETURN_NONE;
    return entry;
}

static PyObject *
sched_peek_time(NativeScheduler *self, PyObject *Py_UNUSED(ignored))
{
    node_t *root = live_root(self);
    if (root == NULL)
        Py_RETURN_NONE;
    return Py_NewRef(PyList_GET_ITEM(root->entry, 0));
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

/* -- the bound Simulator ---------------------------------------------------- */

static PyObject *
sched_bind(NativeScheduler *self, PyObject *sim)
{
    if (K.event == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "bind needs the kernel classes (bind_kernel)");
        return NULL;
    }
    PyObject *dict = PyObject_GenericGetDict(sim, NULL);
    if (dict == NULL)
        return NULL;
    PyObject *seq = PyObject_GetAttr(sim, str_seq);
    PyObject *cb_pool = seq ? PyObject_GetAttr(sim, str_cb_pool) : NULL;
    PyObject *t_pool = cb_pool ? PyObject_GetAttr(sim, str_t_pool) : NULL;
    if (t_pool != NULL && (!PyIter_Check(seq) || !PyList_CheckExact(cb_pool)
                           || !PyList_CheckExact(t_pool))) {
        PyErr_SetString(PyExc_TypeError,
                        "bind needs an iterator _seq and list free lists");
        Py_CLEAR(t_pool);
    }
    if (t_pool == NULL) {
        Py_DECREF(dict);
        Py_XDECREF(seq);
        Py_XDECREF(cb_pool);
        return NULL;
    }
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->dict, dict);
    Py_XSETREF(self->seq, seq);
    Py_XSETREF(self->cb_pool, cb_pool);
    Py_XSETREF(self->t_pool, t_pool);
    Py_RETURN_NONE;
}

static int
check_bound(NativeScheduler *self)
{
    if (self->sim != NULL)
        return 0;
    PyErr_SetString(PyExc_RuntimeError, "scheduler is not bound to a Simulator");
    return -1;
}

/* sim._now (new reference) */
static PyObject *
get_now(NativeScheduler *self)
{
    PyObject *now = PyDict_GetItemWithError(self->dict, str_now);
    if (now == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_AttributeError, str_now);
        return NULL;
    }
    return Py_NewRef(now);
}

/* next(sim._seq) */
static PyObject *
next_seq(NativeScheduler *self)
{
    PyObject *seq = (*Py_TYPE(self->seq)->tp_iternext)(self->seq);
    if (seq == NULL && !PyErr_Occurred())
        PyErr_SetNone(PyExc_StopIteration);
    return seq;
}

/* a < b as Python evaluates it (1, 0, or -1 on error) */
static int
less(PyObject *a, PyObject *b)
{
    if (PyFloat_CheckExact(a) && PyFloat_CheckExact(b))
        return PyFloat_AS_DOUBLE(a) < PyFloat_AS_DOUBLE(b);
    return PyObject_RichCompareBool(a, b, Py_LT);
}

/* delay < 0 as Python evaluates it */
static int
negative(PyObject *delay)
{
    if (PyFloat_CheckExact(delay))
        return PyFloat_AS_DOUBLE(delay) < 0.0;
    return PyObject_RichCompareBool(delay, int_zero, Py_LT);
}

/* next(sim._seq), then push [when_obj, prio_obj, seq, item] */
static PyObject *
push_next(NativeScheduler *self, PyObject *when_obj, PyObject *prio_obj,
          PyObject *item)
{
    PyObject *seq = next_seq(self);
    if (seq == NULL)
        return NULL;
    PyObject *entry = push_entry(self, when_obj, prio_obj, seq, item);
    Py_DECREF(seq);
    return entry;
}

/* ``push(self._now + delay, prio, next(self._seq), item)``, evaluated in
 * the Python order (delay NULL: at ``self._now`` itself). */
static PyObject *
push_after(NativeScheduler *self, PyObject *delay, PyObject *prio_obj,
           PyObject *item)
{
    PyObject *when_obj = get_now(self);
    if (when_obj == NULL)
        return NULL;
    if (delay != NULL) {
        PyObject *now = when_obj;
        if (PyFloat_CheckExact(now) && PyFloat_CheckExact(delay))
            when_obj = PyFloat_FromDouble(PyFloat_AS_DOUBLE(now)
                                          + PyFloat_AS_DOUBLE(delay));
        else
            when_obj = PyNumber_Add(now, delay);
        Py_DECREF(now);
        if (when_obj == NULL)
            return NULL;
    }
    PyObject *entry = push_next(self, when_obj, prio_obj, item);
    Py_DECREF(when_obj);
    return entry;
}

/* A _Callback from the free list (or a new one) holding fn(*args). */
static PyObject *
pooled_callback(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *pool = self->cb_pool, *cb;
    Py_ssize_t n = PyList_GET_SIZE(pool);
    if (n > 0) {
        /* list.pop(): the list's reference moves to the caller */
        cb = PyList_GET_ITEM(pool, n - 1);
        Py_SET_SIZE(pool, n - 1);
    }
    else if ((cb = PyObject_CallNoArgs((PyObject *)K.callback)) == NULL)
        return NULL;
    PyObject *tail = PyTuple_New(nargs - 1);
    if (tail == NULL) {
        Py_DECREF(cb);
        return NULL;
    }
    for (Py_ssize_t i = 1; i < nargs; i++)
        PyTuple_SET_ITEM(tail, i - 1, Py_NewRef(args[i]));
    int fast = Py_IS_TYPE(cb, K.callback);
    int rc = set_slot(cb, fast, C_FN, args[0]);
    if (rc == 0)
        rc = set_slot(cb, fast, C_ARGS, tail);
    Py_DECREF(tail);
    if (rc < 0) {
        Py_DECREF(cb);
        return NULL;
    }
    return cb;
}

static PyObject *
sched_call_after(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "call_after expects (delay, fn, *args)");
        return NULL;
    }
    if (check_bound(self) < 0)
        return NULL;
    int neg = negative(args[0]);
    if (neg < 0)
        return NULL;
    if (neg) {
        PyErr_Format(K.time_error,
                     "cannot schedule callback in the past (delay=%R)", args[0]);
        return NULL;
    }
    PyObject *cb = pooled_callback(self, args + 1, nargs - 1);
    if (cb == NULL)
        return NULL;
    PyObject *entry = push_after(self, args[0], prio_normal, cb);
    Py_DECREF(cb);
    return entry;
}

static PyObject *
sched_call_urgent(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 1) {
        PyErr_SetString(PyExc_TypeError, "call_urgent expects (fn, *args)");
        return NULL;
    }
    if (check_bound(self) < 0)
        return NULL;
    PyObject *cb = pooled_callback(self, args, nargs);
    if (cb == NULL)
        return NULL;
    PyObject *entry = push_after(self, NULL, prio_urgent, cb);
    Py_DECREF(cb);
    return entry;
}

static PyObject *
sched_call_at(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError, "call_at expects (when, fn, *args)");
        return NULL;
    }
    if (check_bound(self) < 0)
        return NULL;
    PyObject *when_obj = args[0];
    PyObject *now = get_now(self);
    if (now == NULL)
        return NULL;
    int past = less(when_obj, now);
    if (past) {
        if (past > 0)
            PyErr_Format(K.time_error,
                         "cannot schedule callback in the past (at %R, "
                         "clock at %R)", when_obj, now);
        Py_DECREF(now);
        return NULL;
    }
    Py_DECREF(now);
    PyObject *cb = pooled_callback(self, args + 1, nargs - 1);
    if (cb == NULL)
        return NULL;
    PyObject *entry = push_next(self, when_obj, prio_normal, cb);
    Py_DECREF(cb);
    return entry;
}

static PyObject *
sched_sleep(NativeScheduler *self, PyObject *delay)
{
    if (check_bound(self) < 0)
        return NULL;
    PyObject *pool = self->t_pool;
    Py_ssize_t n = PyList_GET_SIZE(pool);
    if (n == 0) {
        PyObject *t = PyObject_CallFunctionObjArgs((PyObject *)K.timeout,
                                                   self->sim, delay, NULL);
        if (t != NULL && set_slot(t, Py_IS_TYPE(t, K.timeout), T_POOLED,
                                  Py_True) < 0)
            Py_CLEAR(t);
        return t;
    }
    int neg = negative(delay);
    if (neg < 0)
        return NULL;
    if (neg) {
        PyErr_Format(K.time_error, "negative timeout delay: %R", delay);
        return NULL;
    }
    /* list.pop(), then the fields Simulator.sleep resets, in its order */
    PyObject *t = PyList_GET_ITEM(pool, n - 1);
    Py_SET_SIZE(pool, n - 1);
    int fast = Py_IS_TYPE(t, K.timeout);
    PyObject *callbacks = PyList_New(0);
    int rc = callbacks == NULL ? -1 : 0;
    if (rc == 0)
        rc = set_slot(t, fast, T_DELAY, delay);
    if (rc == 0)
        rc = set_slot(t, fast, E_CALLBACKS, callbacks);
    if (rc == 0)
        rc = set_slot(t, fast, E_VALUE, Py_None);
    if (rc == 0)
        rc = set_slot(t, fast, E_OK, Py_True);
    if (rc == 0)
        rc = set_slot(t, fast, E_SCHEDULED, Py_True);
    if (rc == 0) {
        PyObject *entry = push_after(self, delay, prio_normal, t);
        rc = entry == NULL ? -1 : set_slot(t, fast, E_ENTRY, entry);
        Py_XDECREF(entry);
    }
    Py_XDECREF(callbacks);
    if (rc < 0) {
        Py_DECREF(t);
        return NULL;
    }
    return t;
}

/* -- the run loop ----------------------------------------------------------- */

/* trace.append((when, prio, seq, type(item).__name__)) */
static int
trace_event(PyObject *trace, PyObject *entry, PyObject *item)
{
    PyObject *name = PyObject_GetAttr((PyObject *)Py_TYPE(item), str_name);
    if (name == NULL)
        return -1;
    PyObject *row = PyTuple_Pack(4, PyList_GET_ITEM(entry, 0),
                                 PyList_GET_ITEM(entry, 1),
                                 PyList_GET_ITEM(entry, 2), name);
    Py_DECREF(name);
    if (row == NULL)
        return -1;
    int rc;
    if (PyList_CheckExact(trace))
        rc = PyList_Append(trace, row);
    else {
        PyObject *r = PyObject_CallMethodOneArg(trace, str_append, row);
        rc = r == NULL ? -1 : 0;
        Py_XDECREF(r);
    }
    Py_DECREF(row);
    return rc;
}

/* fn(*args) */
static int
call_star(PyObject *fn, PyObject *args)
{
    PyObject *r;
    if (PyTuple_CheckExact(args))
        r = PyObject_Vectorcall(fn, &PyTuple_GET_ITEM(args, 0),
                                PyTuple_GET_SIZE(args), NULL);
    else {
        PyObject *tuple = PySequence_Tuple(args);
        if (tuple == NULL)
            return -1;
        r = PyObject_Call(fn, tuple, NULL);
        Py_DECREF(tuple);
    }
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* A _Callback: clear it, recycle it, then call what it held. */
static int
fire_callback(PyObject *pool, PyObject *cb)
{
    PyObject *fn = get_slot(cb, 1, C_FN);
    if (fn == NULL)
        return -1;
    PyObject *args = get_slot(cb, 1, C_ARGS);
    int rc = -1;
    if (args != NULL) {
        set_slot(cb, 1, C_FN, Py_None);
        set_slot(cb, 1, C_ARGS, empty_tuple);
        if (PyList_GET_SIZE(pool) >= K.pool_max || PyList_Append(pool, cb) == 0)
            rc = call_star(fn, args);
        Py_DECREF(args);
    }
    Py_DECREF(fn);
    return rc;
}

/* raise value (a failed event's exception) */
static void
raise_value(PyObject *value)
{
    if (PyExceptionInstance_Check(value))
        PyErr_SetObject((PyObject *)Py_TYPE(value), value);
    else if (PyExceptionClass_Check(value))
        PyErr_SetNone(value);
    else
        PyErr_SetString(PyExc_TypeError,
                        "exceptions must derive from BaseException");
}

/* An Event: fire its callbacks, then recycle a pooled Timeout or raise
 * an unwatched failure. */
static int
fire_event(PyObject *pool, PyObject *item)
{
    int fast = PyObject_TypeCheck(item, K.event);
    PyObject *callbacks = get_slot(item, fast, E_CALLBACKS);
    if (callbacks == NULL)
        return -1;
    if (set_slot(item, fast, E_CALLBACKS, Py_None) < 0)
        goto fail;
    if (PyList_CheckExact(callbacks)) {
        /* by live length, as a for loop over a list reads it */
        for (Py_ssize_t i = 0; i < PyList_GET_SIZE(callbacks); i++) {
            PyObject *fn = Py_NewRef(PyList_GET_ITEM(callbacks, i));
            PyObject *r = PyObject_CallOneArg(fn, item);
            Py_DECREF(fn);
            if (r == NULL)
                goto fail;
            Py_DECREF(r);
        }
    }
    else {
        PyObject *it = PyObject_GetIter(callbacks), *fn;
        if (it == NULL)
            goto fail;
        while ((fn = PyIter_Next(it)) != NULL) {
            PyObject *r = PyObject_CallOneArg(fn, item);
            Py_DECREF(fn);
            if (r == NULL)
                break;
            Py_DECREF(r);
        }
        Py_DECREF(it);
        if (PyErr_Occurred())
            goto fail;
    }
    if (Py_IS_TYPE(item, K.timeout)) {
        PyObject *flag = get_slot(item, 1, T_POOLED);
        if (flag == NULL)
            goto fail;
        int pooled = truth(flag);
        Py_DECREF(flag);
        if (pooled < 0)
            goto fail;
        if (pooled && PyList_GET_SIZE(pool) < K.pool_max) {
            set_slot(item, 1, E_VALUE, K.pending);
            if (PyList_Append(pool, item) < 0)
                goto fail;
        }
    }
    else {
        PyObject *ok = get_slot(item, fast, E_OK);
        if (ok == NULL)
            goto fail;
        int succeeded = truth(ok);
        Py_DECREF(ok);
        if (succeeded < 0)
            goto fail;
        if (!succeeded) {
            int watched = truth(callbacks);
            if (watched < 0)
                goto fail;
            if (!watched) {
                PyObject *value = get_slot(item, fast, E_VALUE);
                if (value != NULL) {
                    raise_value(value);
                    Py_DECREF(value);
                }
                goto fail;
            }
        }
    }
    Py_DECREF(callbacks);
    return 0;
fail:
    Py_DECREF(callbacks);
    return -1;
}

/* sim.event_count += processed, with any pending error kept */
static int
count_events(PyObject *dict, Py_ssize_t processed)
{
    PyObject *type, *value, *tb;
    PyErr_Fetch(&type, &value, &tb);
    int rc = -1;
    PyObject *count = PyDict_GetItemWithError(dict, str_event_count);
    if (count == NULL && !PyErr_Occurred())
        PyErr_SetObject(PyExc_AttributeError, str_event_count);
    PyObject *n = count ? PyLong_FromSsize_t(processed) : NULL;
    PyObject *sum = n ? PyNumber_Add(count, n) : NULL;
    if (sum != NULL)
        rc = PyDict_SetItem(dict, str_event_count, sum);
    Py_XDECREF(n);
    Py_XDECREF(sum);
    if (type != NULL) {
        /* the loop's error wins over one of the count's own */
        PyErr_Clear();
        PyErr_Restore(type, value, tb);
    }
    return rc;
}

static PyObject *
sched_dispatch(NativeScheduler *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError, "dispatch expects (stop, horizon, limit)");
        return NULL;
    }
    if (check_bound(self) < 0)
        return NULL;
    PyObject *stop = args[0], *horizon_obj = args[1];
    if (!PyList_Check(stop)) {
        PyErr_SetString(PyExc_TypeError, "dispatch: stop must be a list");
        return NULL;
    }
    int finite = horizon_obj != Py_None;
    double horizon = finite ? PyFloat_AsDouble(horizon_obj) : 0.0;
    if (horizon == -1.0 && PyErr_Occurred())
        return NULL;
    int overflow;
    long long limit = PyLong_AsLongLongAndOverflow(args[2], &overflow);
    if (limit == -1 && PyErr_Occurred())
        return NULL;
    if (overflow > 0)
        limit = LLONG_MAX;

    PyObject *trace = PyDict_GetItemWithError(self->dict, str_trace);
    if (trace == NULL && PyErr_Occurred())
        return NULL;
    trace = trace == Py_None ? NULL : Py_XNewRef(trace);
    /* the loop's own references, whatever a callback rebinds */
    PyObject *dict = Py_NewRef(self->dict);
    PyObject *cb_pool = Py_NewRef(self->cb_pool);
    PyObject *t_pool = Py_NewRef(self->t_pool);

    long long processed = 0;
    int runaway = 0, failed = 0;
    while (PyList_GET_SIZE(stop) == 0) {
        if (finite) {
            node_t *root = live_root(self);
            if (root == NULL || root->when > horizon) {
                /* drained, or the next event lies beyond the horizon */
                failed = PyDict_SetItem(dict, str_now, horizon_obj) < 0;
                break;
            }
        }
        PyObject *entry = pop_live(self);
        if (entry == NULL)
            break;
        if (PyDict_SetItem(dict, str_now, PyList_GET_ITEM(entry, 0)) < 0) {
            Py_DECREF(entry);
            failed = 1;
            break;
        }
        processed++;
        /* detach: the list's reference moves to `item` */
        PyObject *item = PyList_GET_ITEM(entry, 3);
        PyList_SET_ITEM(entry, 3, Py_NewRef(Py_None));
        if (trace != NULL && trace_event(trace, entry, item) < 0)
            failed = 1;
        else if (Py_IS_TYPE(item, K.callback))
            failed = fire_callback(cb_pool, item) < 0;
        else
            failed = fire_event(t_pool, item) < 0;
        Py_DECREF(item);
        Py_DECREF(entry);
        if (failed)
            break;
        if (processed >= limit) {
            runaway = 1;
            break;
        }
    }
    if (count_events(dict, (Py_ssize_t)processed) < 0)
        failed = 1;
    Py_XDECREF(trace);
    Py_DECREF(dict);
    Py_DECREF(cb_pool);
    Py_DECREF(t_pool);
    if (failed || PyErr_Occurred())
        return NULL;
    return PyBool_FromLong(runaway);
}

/* -- type plumbing -------------------------------------------------------- */

static PyObject *
sched_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    /* tp_alloc zero-fills: an empty heap, no simulator bound */
    return type->tp_alloc(type, 0);
}

static int
sched_traverse(NativeScheduler *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].entry);
    Py_VISIT(self->sim);
    Py_VISIT(self->dict);
    Py_VISIT(self->seq);
    Py_VISIT(self->cb_pool);
    Py_VISIT(self->t_pool);
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
    Py_CLEAR(self->sim);
    Py_CLEAR(self->dict);
    Py_CLEAR(self->seq);
    Py_CLEAR(self->cb_pool);
    Py_CLEAR(self->t_pool);
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
    {"bind", (PyCFunction)sched_bind, METH_O,
     "bind(sim): serve sim's run loop and pooled scheduling calls."},
    {"dispatch", (PyCFunction)(void (*)(void))sched_dispatch, METH_FASTCALL,
     "dispatch($self, stop, horizon, limit, /)\n--\n\n"
     "Simulator._dispatch compiled: True when the limit stopped the run."},
    {"call_after", (PyCFunction)(void (*)(void))sched_call_after, METH_FASTCALL,
     "call_after($self, delay, fn, /, *args)\n--\n\n"
     "Simulator.call_after compiled."},
    {"call_at", (PyCFunction)(void (*)(void))sched_call_at, METH_FASTCALL,
     "call_at($self, when, fn, /, *args)\n--\n\n"
     "Simulator.call_at compiled."},
    {"call_urgent", (PyCFunction)(void (*)(void))sched_call_urgent, METH_FASTCALL,
     "call_urgent($self, fn, /, *args)\n--\n\n"
     "Simulator.call_urgent compiled."},
    {"sleep", (PyCFunction)sched_sleep, METH_O,
     "sleep($self, delay, /)\n--\n\n"
     "Simulator.sleep compiled."},
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

/* -- module ------------------------------------------------------------------ */

/* The offset of type's slot `name` (a T_OBJECT_EX member descriptor). */
static int
slot_offset(PyTypeObject *type, int k)
{
    PyObject *d = _PyType_Lookup(type, K.name[k]); /* borrowed */
    if (d == NULL || !Py_IS_TYPE(d, &PyMemberDescr_Type)
        || ((PyMemberDescrObject *)d)->d_member->type != T_OBJECT_EX) {
        PyErr_Format(PyExc_TypeError, "%s.%U is not an object slot",
                     type->tp_name, K.name[k]);
        return -1;
    }
    K.offset[k] = ((PyMemberDescrObject *)d)->d_member->offset;
    return 0;
}

static PyObject *
csched_bind_kernel(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 6) {
        PyErr_SetString(PyExc_TypeError,
                        "bind_kernel expects (Event, Timeout, _Callback, "
                        "pending, pool_max, SimTimeError)");
        return NULL;
    }
    for (int a = 0; a < 3; a++)
        if (!PyType_Check(args[a])) {
            PyErr_SetString(PyExc_TypeError, "bind_kernel: expected classes");
            return NULL;
        }
    PyTypeObject *event = (PyTypeObject *)args[0],
                 *timeout = (PyTypeObject *)args[1],
                 *callback = (PyTypeObject *)args[2];
    if (!PyType_IsSubtype(timeout, event)) {
        PyErr_SetString(PyExc_TypeError, "bind_kernel: Timeout must subclass Event");
        return NULL;
    }
    Py_ssize_t pool_max = PyLong_AsSsize_t(args[4]);
    if (pool_max == -1 && PyErr_Occurred())
        return NULL;
    for (int k = 0; k < N_SLOTS; k++) {
        PyTypeObject *owner = k < T_DELAY ? event : k < C_FN ? timeout : callback;
        if (slot_offset(owner, k) < 0)
            return NULL;
    }
    Py_XSETREF(K.event, (PyTypeObject *)Py_NewRef(event));
    Py_XSETREF(K.timeout, (PyTypeObject *)Py_NewRef(timeout));
    Py_XSETREF(K.callback, (PyTypeObject *)Py_NewRef(callback));
    Py_XSETREF(K.pending, Py_NewRef(args[3]));
    Py_XSETREF(K.time_error, Py_NewRef(args[5]));
    K.pool_max = pool_max;
    Py_RETURN_NONE;
}

static PyMethodDef csched_functions[] = {
    {"bind_kernel", (PyCFunction)(void (*)(void))csched_bind_kernel, METH_FASTCALL,
     "bind_kernel(Event, Timeout, _Callback, pending, pool_max, SimTimeError): "
     "the engine's classes and constants the compiled loop serves."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef csched_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._csched",
    .m_doc = "Compiled scheduler and run loop (see repro.sim.sched for the contract).",
    .m_size = -1,
    .m_methods = csched_functions,
};

static int
intern_names(void)
{
    struct { PyObject **dst; const char *name; } names[] = {
        {&str_now, "_now"}, {&str_event_count, "event_count"},
        {&str_trace, "_trace"}, {&str_seq, "_seq"},
        {&str_cb_pool, "_callback_pool"}, {&str_t_pool, "_timeout_pool"},
        {&str_name, "__name__"}, {&str_append, "append"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*names[i].dst = PyUnicode_InternFromString(names[i].name)) == NULL)
            return -1;
    for (int k = 0; k < N_SLOTS; k++)
        if ((K.name[k] = PyUnicode_InternFromString(slot_names[k])) == NULL)
            return -1;
    prio_urgent = PyLong_FromLong(0);
    prio_normal = PyLong_FromLong(1);
    int_zero = PyLong_FromLong(0);
    empty_tuple = PyTuple_New(0);
    return prio_urgent && prio_normal && int_zero && empty_tuple ? 0 : -1;
}

PyMODINIT_FUNC
PyInit__csched(void)
{
    if (intern_names() < 0)
        return NULL;
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
