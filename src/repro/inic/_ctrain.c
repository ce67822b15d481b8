/* Compiled card-train datapath for INICCard's exchange-phase fast path.
 *
 * Three functions, each the compiled form of a loop in repro.inic.card:
 *
 *   scatter_blocks(card, blocks, start, end, window, train, local,
 *                  busy, busy_add, mem, peak)
 *       -> (i, busy, busy_add, mem, peak)
 *     INICCard._scatter_blocks: lays blocks[start:end] chunk by chunk
 *     onto the wire train's columns from the card's memoised rows
 *     (_row_cache), running the shared bus clock and the card memory
 *     gauge in the four floats it is passed and returns.
 *   group_bytes(trains, idx) -> int or None
 *     INICCard._group_bytes: the payload bytes of a delivery group
 *     (frame idx[k] of trains[k]); None hands the sum back.
 *   account_frames(card, trains, idx, start, end) -> i
 *     INICCard._account_frames: each frame's card counters, memory
 *     gauge, TransferPlan.account and payload store.
 *
 * Identity: every float operation of the Python loops is performed on
 * the same operands in the same order (the module is compiled with
 * -ffp-contract=off and never with fast-math), so clocks, counters and
 * the memory gauge are bit-equal to the reference loops'.  Integer
 * entries are taken only below 2**53, where int-to-float is exact.
 *
 * The loops hand back to Python -- return the index of the first block
 * or frame they do not cover, with nothing of it applied -- on: a
 * self-addressed block or a row-memo miss; a frame whose gather is not
 * posted yet (it is parked); a gather that dedupes or reduces, or whose
 * plan tolerates surplus; an unknown sender or an overflow (the
 * reference raises its error); the frame that completes a plan (so
 * complete.succeed() keeps its push order); and any field or column
 * entry of an unexpected type.  The caller handles that one item with
 * the reference loop and re-enters the kernel.
 *
 * Slot reads: SendBlock, Train and MacAddress have __slots__, so their
 * fields are read at the offsets their member descriptors give,
 * resolved once per exact type (and again if the type is modified)
 * instead of one attribute lookup per read.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

#ifdef Py_TPFLAGS_VALID_VERSION_TAG
#define VERSION_VALID(t) (((t)->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG) != 0)
#else
#define VERSION_VALID(t) ((t)->tp_version_tag != 0)
#endif

/* ints at or above this do not convert to a double exactly */
#define EXACT_LIMIT (1LL << 53)

/* -- slot layouts --------------------------------------------------------- */

#define MAX_SLOTS 10

typedef struct {
    PyTypeObject *type;   /* the exact type resolved (strong ref), or NULL */
    unsigned int version; /* its tp_version_tag at resolution */
    int n;
    const char *const *names;
    PyObject *interned[MAX_SLOTS];
    Py_ssize_t offset[MAX_SLOTS];
} Layout;

enum { B_DST, B_NBYTES, B_DATA };
static const char *const block_names[] = {"dst", "nbytes", "data"};

enum { T_SRC, T_OP, T_DST, T_PAYLOAD_BYTES, T_WIRE_SIZE, T_FRAME_COUNT,
       T_PAYLOAD, T_LAST, T_TOTAL, T_TIMES };
static const char *const train_names[] = {
    "src", "op", "dst", "payload_bytes", "wire_size", "frame_count",
    "payload", "last", "total", "times",
};

enum { A_VALUE };
static const char *const addr_names[] = {"value"};

static Layout block_layout = {NULL, 0, 3, block_names, {NULL}, {0}};
static Layout train_layout = {NULL, 0, 10, train_names, {NULL}, {0}};
static Layout addr_layout = {NULL, 0, 1, addr_names, {NULL}, {0}};

/* 1 when obj's exact type keeps every name of L in an object slot
 * (offsets in L->offset), 0 when it does not: the caller hands back. */
static int
layout_of(Layout *L, PyObject *obj)
{
    PyTypeObject *type = Py_TYPE(obj);
    if (type == L->type && VERSION_VALID(type) && type->tp_version_tag == L->version)
        return 1;
    if (type->tp_getattro != PyObject_GenericGetAttr)
        return 0;
    for (int k = 0; k < L->n; k++) {
        PyObject *d = _PyType_Lookup(type, L->interned[k]); /* borrowed */
        if (d == NULL || !Py_IS_TYPE(d, &PyMemberDescr_Type))
            return 0;
        PyMemberDef *m = ((PyMemberDescrObject *)d)->d_member;
        if (m->type != T_OBJECT_EX)
            return 0;
        L->offset[k] = m->offset;
    }
    /* Cache the type only under a valid version tag; without one the
     * offsets are re-resolved on the next read. */
    Py_XSETREF(L->type, VERSION_VALID(type) ? (PyTypeObject *)Py_NewRef(type) : NULL);
    L->version = type->tp_version_tag;
    return 1;
}

/* Slot k of obj (borrowed; NULL when unset) under a matched layout. */
#define SLOT(L, obj, k) (*(PyObject **)((char *)(obj) + (L).offset[k]))

/* An exact int in [0, 2**53) as a long long, or -1 (error cleared). */
static long long
exact_count(PyObject *obj)
{
    if (obj == NULL || !PyLong_CheckExact(obj))
        return -1;
    long long v = PyLong_AsLongLong(obj);
    if (v == -1 && PyErr_Occurred()) {
        PyErr_Clear();
        return -1;
    }
    return v < EXACT_LIMIT ? v : -1;
}

static int
get_float(PyObject *obj, const char *name, double *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    int ok = PyFloat_CheckExact(v);
    if (ok)
        *out = PyFloat_AS_DOUBLE(v);
    Py_DECREF(v);
    return ok ? 0 : 1;
}

static int
get_count(PyObject *obj, const char *name, long long *out)
{
    PyObject *v = PyObject_GetAttrString(obj, name);
    if (v == NULL)
        return -1;
    *out = exact_count(v);
    Py_DECREF(v);
    return *out < 0 ? 1 : 0;
}

static int
set_float(PyObject *obj, const char *name, double value)
{
    PyObject *v = PyFloat_FromDouble(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, v);
    Py_DECREF(v);
    return rc;
}

static int
set_count(PyObject *obj, const char *name, long long value)
{
    PyObject *v = PyLong_FromLongLong(value);
    if (v == NULL)
        return -1;
    int rc = PyObject_SetAttrString(obj, name, v);
    Py_DECREF(v);
    return rc;
}

/* -- scatter_blocks ------------------------------------------------------- */

/* rows is a memo entry the loop can run: a tuple of 6-tuples
 * (size, d_xfer, last, n_packets, wire_size, nbytes) with exact types. */
static int
rows_ok(PyObject *rows)
{
    if (!PyTuple_CheckExact(rows))
        return 0;
    for (Py_ssize_t r = 0; r < PyTuple_GET_SIZE(rows); r++) {
        PyObject *row = PyTuple_GET_ITEM(rows, r);
        if (!PyTuple_CheckExact(row) || PyTuple_GET_SIZE(row) != 6)
            return 0;
        PyObject *last = PyTuple_GET_ITEM(row, 2);
        if (exact_count(PyTuple_GET_ITEM(row, 0)) < 0
            || !PyFloat_CheckExact(PyTuple_GET_ITEM(row, 1))
            || (last != Py_True && last != Py_False)
            || !PyLong_CheckExact(PyTuple_GET_ITEM(row, 3))
            || !PyLong_CheckExact(PyTuple_GET_ITEM(row, 4))
            || !PyLong_CheckExact(PyTuple_GET_ITEM(row, 5)))
            return 0;
    }
    return 1;
}

static PyObject *
ctrain_scatter_blocks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError,
                        "scatter_blocks expects (card, blocks, start, end, "
                        "window, train, local, busy, busy_add, mem, peak)");
        return NULL;
    }
    PyObject *card = args[0], *blocks = args[1], *window = args[4],
             *train = args[5];
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
    for (int a = 7; a < 11; a++)
        if (!PyFloat_CheckExact(args[a])) /* the reference keeps their type */
            return Py_BuildValue("(nOOOO)", start, args[7], args[8], args[9],
                                 args[10]);
    double busy = PyFloat_AS_DOUBLE(args[7]), busy_add = PyFloat_AS_DOUBLE(args[8]),
           mem = PyFloat_AS_DOUBLE(args[9]), peak = PyFloat_AS_DOUBLE(args[10]);

    PyObject *row_cache = NULL, *address = NULL, *rows = NULL;
    PyObject *col[MAX_SLOTS] = {NULL};
    Py_ssize_t i = start;
    int failed = 0;
    long long own;

    if (!PyList_CheckExact(blocks) || !layout_of(&train_layout, train))
        goto finish;
    for (int c = T_DST; c <= T_TIMES; c++) {
        PyObject *column = SLOT(train_layout, train, c);
        if (column == NULL || !PyList_CheckExact(column))
            goto finish;
        col[c] = Py_NewRef(column);
    }
    row_cache = PyObject_GetAttrString(card, "_row_cache");
    address = PyObject_GetAttrString(card, "address");
    if (row_cache == NULL || address == NULL) {
        failed = 1;
        goto finish;
    }
    if (!PyDict_CheckExact(row_cache) || !layout_of(&addr_layout, address)
        || (own = exact_count(SLOT(addr_layout, address, A_VALUE))) < 0)
        goto finish;

    Py_ssize_t limit = PyList_GET_SIZE(blocks) < end ? PyList_GET_SIZE(blocks) : end;
    long long rows_bytes = -1;
    for (; i < limit; i++) {
        /* Look everything up first: a hand-back leaves block i untouched. */
        PyObject *block = PyList_GET_ITEM(blocks, i);
        if (!layout_of(&block_layout, block))
            break;
        PyObject *dst = SLOT(block_layout, block, B_DST);
        PyObject *nbytes_obj = SLOT(block_layout, block, B_NBYTES);
        PyObject *data = SLOT(block_layout, block, B_DATA);
        long long nbytes = exact_count(nbytes_obj);
        if (dst == NULL || data == NULL || nbytes < 0)
            break;
        if (nbytes != rows_bytes) {
            PyObject *key = PyTuple_Pack(2, nbytes_obj, window);
            if (key == NULL) {
                failed = 1;
                break;
            }
            PyObject *found = PyDict_GetItemWithError(row_cache, key);
            Py_DECREF(key);
            if (found == NULL) { /* a memo miss: the reference fills it */
                if (PyErr_Occurred())
                    failed = 1;
                break;
            }
            if (!rows_ok(found))
                break;
            Py_XSETREF(rows, Py_NewRef(found));
            rows_bytes = nbytes;
        }
        if (!layout_of(&addr_layout, dst))
            break;
        long long dst_value = exact_count(SLOT(addr_layout, dst, A_VALUE));
        if (dst_value < 0 || dst_value == own) /* self-addressed or odd */
            break;

        Py_ssize_t n_rows = PyTuple_GET_SIZE(rows);
        for (Py_ssize_t r = 0; !failed && r < n_rows; r++) {
            PyObject *row = PyTuple_GET_ITEM(rows, r);
            PyObject *size_obj = PyTuple_GET_ITEM(row, 0);
            PyObject *last = PyTuple_GET_ITEM(row, 2);
            double size = (double)PyLong_AsLongLong(size_obj);
            double d_xfer = PyFloat_AS_DOUBLE(PyTuple_GET_ITEM(row, 1));
            /* Ingest ends (ready), the egress ends: two float adds, left
             * to right, in that order. */
            busy = busy + d_xfer + d_xfer;
            busy_add += d_xfer;
            busy_add += d_xfer;
            mem += size;
            if (mem > peak)
                peak = mem;
            mem -= size;
            PyObject *at = PyFloat_FromDouble(busy);
            if (at == NULL
                || PyList_Append(col[T_DST], dst) < 0
                || PyList_Append(col[T_PAYLOAD_BYTES], size_obj) < 0
                || PyList_Append(col[T_WIRE_SIZE], PyTuple_GET_ITEM(row, 4)) < 0
                || PyList_Append(col[T_FRAME_COUNT], PyTuple_GET_ITEM(row, 3)) < 0
                || PyList_Append(col[T_PAYLOAD], last == Py_True ? data : Py_None) < 0
                || PyList_Append(col[T_LAST], last) < 0
                || PyList_Append(col[T_TOTAL], PyTuple_GET_ITEM(row, 5)) < 0
                || PyList_Append(col[T_TIMES], at) < 0)
                failed = 1;
            Py_XDECREF(at);
        }
        if (failed)
            break;
    }

finish:
    Py_XDECREF(row_cache);
    Py_XDECREF(address);
    Py_XDECREF(rows);
    for (int c = 0; c < MAX_SLOTS; c++)
        Py_XDECREF(col[c]);
    if (failed)
        return NULL;
    return Py_BuildValue("(ndddd)", i, busy, busy_add, mem, peak);
}

/* -- group_bytes ---------------------------------------------------------- */

/* Column c's entry idx of a train under train_layout (borrowed), or NULL
 * when the column is not a list or idx is not an index into it. */
static PyObject *
column_entry(PyObject *train, int c, PyObject *idx)
{
    PyObject *column = SLOT(train_layout, train, c);
    long long i = exact_count(idx);
    if (column == NULL || !PyList_CheckExact(column) || i < 0
        || i >= PyList_GET_SIZE(column))
        return NULL;
    return PyList_GET_ITEM(column, i);
}

static PyObject *
ctrain_group_bytes(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "group_bytes expects (trains, idx)");
        return NULL;
    }
    PyObject *trains = args[0], *idx = args[1];
    if (!PyList_CheckExact(trains) || !PyList_CheckExact(idx))
        Py_RETURN_NONE;
    Py_ssize_t n = PyList_GET_SIZE(trains) < PyList_GET_SIZE(idx)
                       ? PyList_GET_SIZE(trains) : PyList_GET_SIZE(idx);
    long long total = 0;
    for (Py_ssize_t k = 0; k < n; k++) {
        PyObject *train = PyList_GET_ITEM(trains, k);
        if (!layout_of(&train_layout, train))
            Py_RETURN_NONE;
        long long nbytes = exact_count(
            column_entry(train, T_PAYLOAD_BYTES, PyList_GET_ITEM(idx, k)));
        if (nbytes < 0 || (total += nbytes) >= EXACT_LIMIT)
            Py_RETURN_NONE;
    }
    return PyLong_FromLongLong(total);
}

/* -- account_frames ------------------------------------------------------- */

/* One gather's accounting state, held in locals while its frames run. */
typedef struct {
    PyObject *op;       /* the gather (strong ref), or NULL */
    PyObject *plan, *expected, *received, *sources, *items;
    long long pending, total_received;
    double pending_delivery;
    int ok;             /* its frames can run here */
    int dirty;          /* locals differ from the objects */
} Gather;

static void
gather_clear(Gather *g)
{
    g->dirty = 0;
    Py_CLEAR(g->op);
    Py_CLEAR(g->plan);
    Py_CLEAR(g->expected);
    Py_CLEAR(g->received);
    Py_CLEAR(g->sources);
    Py_CLEAR(g->items);
}

/* Write g's locals back to its gather and plan, then clear g. */
static int
gather_flush(Gather *g)
{
    int rc = 0;
    if (g->dirty
        && (set_float(g->op, "pending_delivery", g->pending_delivery) < 0
            || set_count(g->plan, "_total_received", g->total_received) < 0
            || set_count(g->plan, "_pending", g->pending) < 0))
        rc = -1;
    gather_clear(g);
    return rc;
}

/* Load gather op into g (flushed and empty).  -1 on error; g->ok is 0
 * when its frames must take the reference loop. */
static int
gather_load(Gather *g, PyObject *op)
{
    g->op = Py_NewRef(op);
    g->ok = 0;
    PyObject *dedupe = PyObject_GetAttrString(op, "dedupe_payloads");
    if (dedupe == NULL)
        return -1;
    int dedupes = PyObject_IsTrue(dedupe);
    Py_DECREF(dedupe);
    if (dedupes != 0)
        return dedupes < 0 ? -1 : 0;
    PyObject *reduce_core = PyObject_GetAttrString(op, "reduce_core");
    if (reduce_core == NULL)
        return -1;
    int reduces = reduce_core != Py_None;
    Py_DECREF(reduce_core);
    if (reduces)
        return 0;
    int rc;
    if ((rc = get_float(op, "pending_delivery", &g->pending_delivery)) != 0)
        return rc < 0 ? -1 : 0;
    if ((g->plan = PyObject_GetAttrString(op, "plan")) == NULL
        || (g->sources = PyObject_GetAttrString(op, "_sources")) == NULL
        || (g->items = PyObject_GetAttrString(op, "_items")) == NULL
        || (g->expected = PyObject_GetAttrString(g->plan, "expected")) == NULL
        || (g->received = PyObject_GetAttrString(g->plan, "received")) == NULL)
        return -1;
    if (!PyList_CheckExact(g->sources) || !PyList_CheckExact(g->items)
        || !PyDict_CheckExact(g->expected) || !PyDict_CheckExact(g->received))
        return 0;
    PyObject *tolerate = PyObject_GetAttrString(g->plan, "tolerate_surplus");
    if (tolerate == NULL)
        return -1;
    int tolerates = PyObject_IsTrue(tolerate);
    Py_DECREF(tolerate);
    if (tolerates != 0)
        return tolerates < 0 ? -1 : 0;
    if ((rc = get_count(g->plan, "_pending", &g->pending)) != 0
        || (rc = get_count(g->plan, "_total_received", &g->total_received)) != 0)
        return rc < 0 ? -1 : 0;
    g->ok = 1;
    return 0;
}

static PyObject *
ctrain_account_frames(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "account_frames expects (card, trains, idx, start, end)");
        return NULL;
    }
    PyObject *card = args[0], *trains = args[1], *idx = args[2];
    Py_ssize_t start = PyLong_AsSsize_t(args[3]);
    if (start == -1 && PyErr_Occurred())
        return NULL;
    Py_ssize_t end = PyLong_AsSsize_t(args[4]);
    if (end == -1 && PyErr_Occurred())
        return NULL;
    if (start < 0) {
        PyErr_SetString(PyExc_ValueError, "start must be >= 0");
        return NULL;
    }

    PyObject *gathers = NULL, *stats = NULL;
    Gather g = {NULL};
    Py_ssize_t k = start;
    int failed = 0, rc;
    double mem, peak, bytes_received;
    long long frames_received;

    if (!PyList_CheckExact(trains) || !PyList_CheckExact(idx))
        goto done;
    if ((gathers = PyObject_GetAttrString(card, "_gathers")) == NULL
        || (stats = PyObject_GetAttrString(card, "stats")) == NULL) {
        failed = 1;
        goto done;
    }
    if ((rc = get_float(card, "_mem_in_use", &mem)) != 0
        || (rc = get_float(stats, "peak_memory_bytes", &peak)) != 0
        || (rc = get_float(stats, "bytes_received", &bytes_received)) != 0
        || (rc = get_count(stats, "frames_received", &frames_received)) != 0) {
        failed = rc < 0;
        goto done;
    }
    if (!PyDict_CheckExact(gathers))
        goto done;

    Py_ssize_t limit = end;
    if (PyList_GET_SIZE(trains) < limit) limit = PyList_GET_SIZE(trains);
    if (PyList_GET_SIZE(idx) < limit) limit = PyList_GET_SIZE(idx);

    PyObject *cur_train = NULL, *peer = NULL, *tag = NULL;
    for (; k < limit; k++) {
        /* Look everything up first: a hand-back leaves frame k untouched. */
        PyObject *train = PyList_GET_ITEM(trains, k);
        if (train != cur_train) {
            /* The train's source and op, read once per run of its frames. */
            cur_train = NULL;
            if (!layout_of(&train_layout, train))
                break;
            PyObject *src = SLOT(train_layout, train, T_SRC);
            if (src == NULL || !layout_of(&addr_layout, src))
                break;
            peer = SLOT(addr_layout, src, A_VALUE);
            tag = SLOT(train_layout, train, T_OP);
            if (exact_count(peer) < 0 || tag == NULL)
                break;
            cur_train = train;
        }
        PyObject *i = PyList_GET_ITEM(idx, k);
        long long nbytes = exact_count(column_entry(train, T_PAYLOAD_BYTES, i));
        long long frame_count = exact_count(column_entry(train, T_FRAME_COUNT, i));
        PyObject *last = column_entry(train, T_LAST, i);
        PyObject *payload = column_entry(train, T_PAYLOAD, i);
        if (nbytes < 0 || frame_count < 0 || payload == NULL
            || (last != Py_True && last != Py_False))
            break;

        PyObject *gather = PyDict_GetItemWithError(gathers, tag);
        if (gather == NULL) { /* not posted yet: the reference parks it */
            failed = PyErr_Occurred() != NULL;
            break;
        }
        if (gather != g.op) {
            if (gather_flush(&g) < 0 || gather_load(&g, gather) < 0) {
                failed = 1;
                break;
            }
        }
        if (!g.ok)
            break;
        /* TransferPlan.account, checked before anything is applied. */
        PyObject *exp_obj = PyDict_GetItemWithError(g.expected, peer);
        PyObject *prev_obj = exp_obj == NULL ? NULL
                             : PyDict_GetItemWithError(g.received, peer);
        if (prev_obj == NULL) { /* an unknown sender: the reference raises */
            failed = PyErr_Occurred() != NULL;
            break;
        }
        long long exp = exact_count(exp_obj), prev = exact_count(prev_obj);
        if (exp < 0 || prev < 0)
            break;
        long long new = prev + nbytes;
        if (new > exp) /* an overflow: the reference raises */
            break;
        int crossed = prev < exp && exp <= new;
        if (crossed && g.pending <= 1) /* completes the plan */
            break;

        PyObject *new_obj = PyLong_FromLongLong(new);
        if (new_obj == NULL) {
            failed = 1;
            break;
        }
        rc = PyDict_SetItem(g.received, peer, new_obj);
        Py_DECREF(new_obj);
        if (rc < 0) {
            failed = 1;
            break;
        }
        frames_received += frame_count;
        bytes_received += (double)nbytes;
        mem += (double)nbytes;
        if (mem > peak)
            peak = mem;
        g.total_received += new - prev;
        if (crossed)
            g.pending -= 1;
        g.pending_delivery += (double)nbytes;
        g.dirty = 1;
        if (last == Py_True && payload != Py_None
            && (PyList_Append(g.sources, peer) < 0
                || PyList_Append(g.items, payload) < 0)) {
            failed = 1;
            break;
        }
    }

    /* Write back what was applied, as the reference loop's tail. */
    if (!failed
        && (gather_flush(&g) < 0
            || set_float(card, "_mem_in_use", mem) < 0
            || set_float(stats, "peak_memory_bytes", peak) < 0
            || set_count(stats, "frames_received", frames_received) < 0
            || set_float(stats, "bytes_received", bytes_received) < 0))
        failed = 1;

done:
    gather_clear(&g);
    Py_XDECREF(gathers);
    Py_XDECREF(stats);
    if (failed)
        return NULL;
    return PyLong_FromSsize_t(k);
}

/* -- module --------------------------------------------------------------- */

static PyMethodDef ctrain_methods[] = {
    {"scatter_blocks", (PyCFunction)(void (*)(void))ctrain_scatter_blocks,
     METH_FASTCALL,
     "scatter_blocks(card, blocks, start, end, window, train, local, busy, "
     "busy_add, mem, peak) -> (index of the first block not laid down, "
     "busy, busy_add, mem, peak)"},
    {"group_bytes", (PyCFunction)(void (*)(void))ctrain_group_bytes,
     METH_FASTCALL,
     "group_bytes(trains, idx) -> the group's payload bytes, or None"},
    {"account_frames", (PyCFunction)(void (*)(void))ctrain_account_frames,
     METH_FASTCALL,
     "account_frames(card, trains, idx, start, end) -> index of the first "
     "frame not accounted"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef ctrain_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.inic._ctrain",
    .m_doc = "Compiled card-train datapath (see repro.inic.card).",
    .m_size = -1,
    .m_methods = ctrain_methods,
};

PyMODINIT_FUNC
PyInit__ctrain(void)
{
    Layout *layouts[] = {&block_layout, &train_layout, &addr_layout};
    for (size_t j = 0; j < sizeof(layouts) / sizeof(layouts[0]); j++) {
        Layout *L = layouts[j];
        for (int k = 0; k < L->n; k++) {
            L->interned[k] = PyUnicode_InternFromString(L->names[k]);
            if (L->interned[k] == NULL)
                return NULL;
        }
    }
    return PyModule_Create(&ctrain_module);
}
