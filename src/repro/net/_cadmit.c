/* Compiled flow-clock slice loop for HierarchicalFabric.
 *
 * SliceKernel.admit(uplink, train, start, end, sink) is the compiled
 * form of HierarchicalFabric._admit_unicast in repro.net.topology: it
 * admits the unicast frames of train[start:end] at their send times,
 * walking each frame's hops over the fabric's clock ledger and
 * appending its delivery to sink as (port, index, at).  It returns the
 * index of the first frame it did not admit, or end.
 *
 * The ledger is the fabric's columns: _clock_busy, _max_queue,
 * _fwd_bytes and _drop_bytes are array('d'), _fwd_frames and
 * _drop_frames array('q'), one slot per clock.  The kernel holds a
 * writable buffer on each for its lifetime and updates them in place,
 * so the per-hop work is plain double and int64 arithmetic.
 *
 * Identity: every float operation of the Python loop is performed on
 * the same operands in the same order (the module is compiled with
 * -ffp-contract=off and never with fast-math), so clocks, ledgers and
 * arrival floats are bit-equal to the reference loop's.
 *
 * The kernel hands back to Python -- returns the frame's index with
 * nothing of that frame applied -- at the first frame it does not
 * cover: a missing forwarding entry (a broadcast has none), a
 * route-memo miss, a port with no station attached, or any column
 * entry of an unexpected type.  The caller admits that frame with the
 * reference loop, which fills the memo or raises its usual error, and
 * re-enters the kernel.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* hop tuples longer than this are handed back to the reference loop */
#define MAX_HOPS 64

enum { BUSY, MAX_QUEUE, FWD_BYTES, DROP_BYTES, FWD_FRAMES, DROP_FRAMES,
       N_COLUMNS };

static const char *const column_names[N_COLUMNS] = {
    "_clock_busy", "_max_queue", "_fwd_bytes", "_drop_bytes",
    "_fwd_frames", "_drop_frames",
};

typedef struct {
    PyObject_HEAD
    PyObject *fabric;   /* routing counters are read and written per call */
    PyObject *table;    /* address value -> port */
    PyObject *routes;   /* route key -> hop tuple (the memo) */
    PyObject *devices;  /* port -> station or None */
    PyObject *key_base; /* port -> route-key row base */
    Py_buffer columns[N_COLUMNS];
    int n_held;         /* buffers acquired so far */
    Py_ssize_t n_clocks;
    double bandwidth, prop, fwd, buffer;
    int lossless;
} SliceKernel;

static PyObject *s_value, *s_port, *s_busy_until, *s_frames_sent,
    *s_bytes_sent, *s_busy_time, *s_frames_in, *s_frames_routed,
    *s_hops_total, *s_max_hops, *s_dst, *s_times, *s_wire_size,
    *s_frame_count, *s_bandwidth, *s_propagation_delay,
    *s_forwarding_latency, *s_buffer_bytes_per_port;

/* -- small helpers -------------------------------------------------------- */

static int
get_double(PyObject *obj, PyObject *name, double *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyFloat_AsDouble(v);
    Py_DECREF(v);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

static int
get_llong(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    *out = PyLong_AsLongLong(v);
    Py_DECREF(v);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
set_double(PyObject *obj, PyObject *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
set_llong(PyObject *obj, PyObject *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttr(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* A train column as a list; NULL (no error set) when it is not one. */
static PyObject *
get_list(PyObject *train, PyObject *name)
{
    PyObject *v = PyObject_GetAttr(train, name);
    if (v == NULL)
        return NULL;
    if (!PyList_CheckExact(v)) {
        Py_DECREF(v);
        return NULL;
    }
    return v;
}

/* An int column entry, or -1 (error cleared) when it is not one. */
static long long
small_int(PyObject *obj)
{
    if (!PyLong_CheckExact(obj))
        return -1;
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return v;
}

/* -- the slice loop -------------------------------------------------------- */

static PyObject *
kernel_admit(SliceKernel *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "admit expects (uplink, train, start, end, sink)");
        return NULL;
    }
    PyObject *uplink = args[0], *train = args[1], *sink = args[4];
    Py_ssize_t start = PyLong_AsSsize_t(args[2]);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t end = PyLong_AsSsize_t(args[3]);
    if (end == -1 && PyErr_Occurred())
        return NULL;
    if (start < 0) {
        PyErr_SetString(PyExc_ValueError, "start must be >= 0");
        return NULL;
    }
    if (!PyList_Check(sink)) {
        PyErr_SetString(PyExc_TypeError, "sink must be a list");
        return NULL;
    }
    if (self->fabric == NULL || self->n_held != N_COLUMNS) {
        PyErr_SetString(PyExc_RuntimeError,
                        "SliceKernel is not bound to a fabric");
        return NULL;
    }

    PyObject *dsts = NULL, *times = NULL, *wire_sizes = NULL,
             *frame_counts = NULL, *result = NULL;
    if ((dsts = get_list(train, s_dst)) == NULL
        || (times = get_list(train, s_times)) == NULL
        || (wire_sizes = get_list(train, s_wire_size)) == NULL
        || (frame_counts = get_list(train, s_frame_count)) == NULL) {
        if (!PyErr_Occurred())
            result = PyLong_FromSsize_t(start); /* hand the slice back */
        goto done;
    }

    long long src_port, frames_sent, frames_in, frames_routed, hops_total,
        max_hops;
    double busy_until, bytes_sent, busy_time;
    if (get_llong(uplink, s_port, &src_port) < 0
        || get_double(uplink, s_busy_until, &busy_until) < 0
        || get_llong(uplink, s_frames_sent, &frames_sent) < 0
        || get_double(uplink, s_bytes_sent, &bytes_sent) < 0
        || get_double(uplink, s_busy_time, &busy_time) < 0
        || get_llong(self->fabric, s_frames_in, &frames_in) < 0
        || get_llong(self->fabric, s_frames_routed, &frames_routed) < 0
        || get_llong(self->fabric, s_hops_total, &hops_total) < 0
        || get_llong(self->fabric, s_max_hops, &max_hops) < 0)
        goto done;
    if (src_port < 0 || src_port >= PyList_GET_SIZE(self->key_base)) {
        PyErr_SetString(PyExc_IndexError, "uplink port out of range");
        goto done;
    }
    long long key_base = small_int(PyList_GET_ITEM(self->key_base, src_port));
    if (key_base < 0) {
        PyErr_SetString(PyExc_TypeError, "route key base is not an int");
        goto done;
    }

    double *busy = (double *)self->columns[BUSY].buf;
    double *max_queue = (double *)self->columns[MAX_QUEUE].buf;
    double *fwd_bytes = (double *)self->columns[FWD_BYTES].buf;
    double *drop_bytes = (double *)self->columns[DROP_BYTES].buf;
    long long *fwd_frames = (long long *)self->columns[FWD_FRAMES].buf;
    long long *drop_frames = (long long *)self->columns[DROP_FRAMES].buf;
    const double bandwidth = self->bandwidth, prop = self->prop,
                 fwd = self->fwd, buffer = self->buffer;
    const int lossless = self->lossless;
    Py_ssize_t n_devices = PyList_GET_SIZE(self->devices);

    /* Past the shortest column the reference loop raises its IndexError. */
    Py_ssize_t limit = end;
    if (PyList_GET_SIZE(dsts) < limit) limit = PyList_GET_SIZE(dsts);
    if (PyList_GET_SIZE(times) < limit) limit = PyList_GET_SIZE(times);
    if (PyList_GET_SIZE(wire_sizes) < limit) limit = PyList_GET_SIZE(wire_sizes);
    if (PyList_GET_SIZE(frame_counts) < limit) limit = PyList_GET_SIZE(frame_counts);

    Py_ssize_t hop[MAX_HOPS];
    Py_ssize_t i = start;
    int failed = 0;
    for (; !failed && i < limit; i++) {
        /* Look everything up first: a hand-back leaves frame i untouched. */
        PyObject *t_obj = PyList_GET_ITEM(times, i);
        if (!PyFloat_CheckExact(t_obj))
            break;
        long long wire_size = small_int(PyList_GET_ITEM(wire_sizes, i));
        long long frame_count = small_int(PyList_GET_ITEM(frame_counts, i));
        if (wire_size < 0 || frame_count < 0)
            break;
        PyObject *value = PyObject_GetAttr(PyList_GET_ITEM(dsts, i), s_value);
        if (value == NULL) {
            PyErr_Clear();
            break;
        }
        if (small_int(value) == -1) { /* broadcast, or not an int */
            Py_DECREF(value);
            break;
        }
        PyObject *port_obj = PyDict_GetItemWithError(self->table, value);
        Py_DECREF(value);
        if (port_obj == NULL) {
            PyErr_Clear();
            break;
        }
        long long port = small_int(port_obj);
        if (port < 0 || port >= n_devices
            || PyList_GET_ITEM(self->devices, port) == Py_None)
            break;
        PyObject *key = PyLong_FromLongLong(key_base + port);
        if (key == NULL) {
            failed = 1;
            break;
        }
        PyObject *hops = PyDict_GetItemWithError(self->routes, key);
        Py_DECREF(key);
        if (hops == NULL) {
            PyErr_Clear();
            break;
        }
        if (!PyTuple_CheckExact(hops))
            break;
        Py_ssize_t n_hops = PyTuple_GET_SIZE(hops);
        if (n_hops == 0 || n_hops > MAX_HOPS)
            break;
        Py_ssize_t h;
        for (h = 0; h < n_hops; h++) {
            long long k = small_int(PyTuple_GET_ITEM(hops, h));
            if (k < 0 || k >= self->n_clocks)
                break;
            hop[h] = (Py_ssize_t)k;
        }
        if (h < n_hops)
            break;

        /* The uplink recurrence: _admit's float operations, in order. */
        double t = PyFloat_AS_DOUBLE(t_obj);
        double ws = (double)wire_size;
        double tx_time = ws / bandwidth;
        double begin = t > busy_until ? t : busy_until;
        busy_until = begin + tx_time;
        frames_sent += frame_count;
        bytes_sent += ws;
        busy_time += tx_time;
        double arrival = begin + tx_time + prop + fwd;
        frames_in += frame_count;
        frames_routed += 1;
        hops_total += n_hops;
        if (n_hops > max_hops)
            max_hops = n_hops;

        /* _walk_hops: contention-only links, then the egress clock. */
        Py_ssize_t n_links = n_hops - 1, k;
        double b, backlog, queued;
        for (h = 0; h < n_links; h++) {
            k = hop[h];
            b = busy[k];
            backlog = b > arrival ? (b - arrival) * bandwidth : 0.0;
            queued = backlog + ws;
            if (queued > max_queue[k])
                max_queue[k] = queued;
            begin = b > arrival ? b : arrival;
            busy[k] = begin + tx_time;
            fwd_frames[k] += frame_count;
            fwd_bytes[k] += ws;
            arrival = begin;
        }
        k = hop[n_links];
        b = busy[k];
        backlog = b > arrival ? (b - arrival) * bandwidth : 0.0;
        queued = backlog + ws;
        if (queued > buffer && !lossless) {
            drop_frames[k] += frame_count;
            drop_bytes[k] += ws;
            continue;
        }
        if (queued > max_queue[k])
            max_queue[k] = queued;
        double done = (b > arrival ? b : arrival) + tx_time;
        busy[k] = done;
        fwd_frames[k] += frame_count;
        fwd_bytes[k] += ws;
        double deliver_at = done + prop;

        PyObject *entry = PyTuple_New(3);
        if (entry == NULL) {
            failed = 1;
            break;
        }
        Py_INCREF(port_obj);
        PyTuple_SET_ITEM(entry, 0, port_obj);
        PyObject *index = PyLong_FromSsize_t(i);
        PyObject *at = PyFloat_FromDouble(t + (deliver_at - t));
        if (index != NULL)
            PyTuple_SET_ITEM(entry, 1, index);
        if (at != NULL)
            PyTuple_SET_ITEM(entry, 2, at);
        if (index == NULL || at == NULL || PyList_Append(sink, entry) < 0) {
            Py_DECREF(entry);
            failed = 1;
            break;
        }
        Py_DECREF(entry);
    }

    /* Write back what was admitted, as the reference loop's finally. */
    if (set_double(uplink, s_busy_until, busy_until) < 0
        || set_llong(uplink, s_frames_sent, frames_sent) < 0
        || set_double(uplink, s_bytes_sent, bytes_sent) < 0
        || set_double(uplink, s_busy_time, busy_time) < 0
        || set_llong(self->fabric, s_frames_in, frames_in) < 0
        || set_llong(self->fabric, s_frames_routed, frames_routed) < 0
        || set_llong(self->fabric, s_hops_total, hops_total) < 0
        || set_llong(self->fabric, s_max_hops, max_hops) < 0)
        failed = 1;
    if (!failed)
        result = PyLong_FromSsize_t(i);

done:
    Py_XDECREF(dsts);
    Py_XDECREF(times);
    Py_XDECREF(wire_sizes);
    Py_XDECREF(frame_counts);
    return result;
}

/* -- type plumbing -------------------------------------------------------- */

static int
kernel_traverse(SliceKernel *self, visitproc visit, void *arg)
{
    Py_VISIT(self->fabric);
    Py_VISIT(self->table);
    Py_VISIT(self->routes);
    Py_VISIT(self->devices);
    Py_VISIT(self->key_base);
    return 0;
}

static int
kernel_clear(SliceKernel *self)
{
    Py_CLEAR(self->fabric);
    Py_CLEAR(self->table);
    Py_CLEAR(self->routes);
    Py_CLEAR(self->devices);
    Py_CLEAR(self->key_base);
    return 0;
}

static void
kernel_dealloc(SliceKernel *self)
{
    PyObject_GC_UnTrack(self);
    kernel_clear(self);
    for (int c = 0; c < self->n_held; c++)
        PyBuffer_Release(&self->columns[c]);
    self->n_held = 0;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static int
hold_attr(PyObject *fabric, const char *name, PyObject **slot,
          PyTypeObject *type)
{
    PyObject *v = PyObject_GetAttrString(fabric, name);
    if (v == NULL)
        return -1;
    if (!Py_IS_TYPE(v, type)) {
        PyErr_Format(PyExc_TypeError, "fabric.%s must be a %s", name,
                     type->tp_name);
        Py_DECREF(v);
        return -1;
    }
    *slot = v;
    return 0;
}

static int
kernel_init(SliceKernel *self, PyObject *args, PyObject *kwds)
{
    PyObject *fabric;
    if (!PyArg_ParseTuple(args, "O:SliceKernel", &fabric))
        return -1;
    if (self->fabric != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "SliceKernel is already bound");
        return -1;
    }
    Py_INCREF(fabric);
    self->fabric = fabric;
    if (hold_attr(fabric, "_table", &self->table, &PyDict_Type) < 0
        || hold_attr(fabric, "_routes", &self->routes, &PyDict_Type) < 0
        || hold_attr(fabric, "_devices", &self->devices, &PyList_Type) < 0
        || hold_attr(fabric, "_key_base", &self->key_base, &PyList_Type) < 0)
        return -1;
    PyObject *ref = PyObject_GetAttrString(fabric, "_lossless");
    if (ref == NULL)
        return -1;
    self->lossless = PyObject_IsTrue(ref);
    Py_DECREF(ref);
    if (self->lossless < 0)
        return -1;
    if (get_double(fabric, s_bandwidth, &self->bandwidth) < 0
        || get_double(fabric, s_propagation_delay, &self->prop) < 0
        || get_double(fabric, s_forwarding_latency, &self->fwd) < 0
        || get_double(fabric, s_buffer_bytes_per_port, &self->buffer) < 0)
        return -1;
    self->n_clocks = -1;
    for (int c = 0; c < N_COLUMNS; c++) {
        PyObject *col = PyObject_GetAttrString(fabric, column_names[c]);
        if (col == NULL)
            return -1;
        Py_buffer *view = &self->columns[c];
        int rc = PyObject_GetBuffer(col, view, PyBUF_WRITABLE | PyBUF_FORMAT);
        Py_DECREF(col);
        if (rc < 0)
            return -1;
        self->n_held++;
        const char *want = c < FWD_FRAMES ? "d" : "q";
        Py_ssize_t n = view->len / 8;
        if (view->itemsize != 8 || strcmp(view->format, want) != 0
            || (self->n_clocks >= 0 && n != self->n_clocks)) {
            PyErr_Format(PyExc_TypeError,
                         "fabric.%s must be an array('%s') of n_clocks slots",
                         column_names[c], want);
            return -1;
        }
        self->n_clocks = n;
    }
    return 0;
}

static PyMethodDef kernel_methods[] = {
    {"admit", (PyCFunction)(void (*)(void))kernel_admit, METH_FASTCALL,
     "admit(uplink, train, start, end, sink) -> index of the first frame "
     "not admitted, or end"},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject SliceKernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net._cadmit.SliceKernel",
    .tp_doc = "Compiled unicast slice loop bound to one HierarchicalFabric.",
    .tp_basicsize = sizeof(SliceKernel),
    .tp_itemsize = 0,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)kernel_init,
    .tp_dealloc = (destructor)kernel_dealloc,
    .tp_traverse = (traverseproc)kernel_traverse,
    .tp_clear = (inquiry)kernel_clear,
    .tp_methods = kernel_methods,
};

static struct PyModuleDef cadmit_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.net._cadmit",
    .m_doc = "Compiled flow-clock slice loop (see repro.net.flowclock).",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__cadmit(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&s_value, "value"}, {&s_port, "port"},
        {&s_busy_until, "_busy_until"}, {&s_frames_sent, "frames_sent"},
        {&s_bytes_sent, "bytes_sent"}, {&s_busy_time, "busy_time"},
        {&s_frames_in, "_frames_in"}, {&s_frames_routed, "_frames_routed"},
        {&s_hops_total, "_hops_total"}, {&s_max_hops, "_max_hops"},
        {&s_dst, "dst"}, {&s_times, "times"}, {&s_wire_size, "wire_size"},
        {&s_frame_count, "frame_count"}, {&s_bandwidth, "bandwidth"},
        {&s_propagation_delay, "propagation_delay"},
        {&s_forwarding_latency, "forwarding_latency"},
        {&s_buffer_bytes_per_port, "buffer_bytes_per_port"},
    };
    for (size_t j = 0; j < sizeof(names) / sizeof(names[0]); j++) {
        *names[j].slot = PyUnicode_InternFromString(names[j].name);
        if (*names[j].slot == NULL)
            return NULL;
    }
    if (PyType_Ready(&SliceKernelType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&cadmit_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&SliceKernelType);
    if (PyModule_AddObject(m, "SliceKernel", (PyObject *)&SliceKernelType) < 0) {
        Py_DECREF(&SliceKernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
